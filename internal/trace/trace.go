// Package trace implements block-request traces: capture from a running
// driver, a compact binary encoding, and a line-oriented text encoding.
// Replay — open or closed loop, into a driver or a volume — is
// internal/tracein's Replayer.
//
// The paper's technique was first validated by trace-driven simulation
// ([Akyurek 93]); this package provides the equivalent capability for
// the reproduced system — a workload can be captured once and replayed
// against different disks, policies, or schedulers.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"

	"repro/internal/driver"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Record is one block request: its arrival time in simulated
// milliseconds, direction, partition, and partition-relative block
// number.
type Record struct {
	TimeMS float64
	Write  bool
	Part   int
	Block  int64
}

// Magic identifies a binary trace stream ("ABRT").
const Magic uint32 = 0x41425254

// Version is the current binary format version.
const Version uint16 = 1

// ErrBadHeader is returned when a binary trace header is invalid.
var ErrBadHeader = errors.New("trace: bad header")

const recordSize = 18 // time f64 | flags u8 | part u8 | block i64

// WriteBinary writes records in the compact binary format.
func WriteBinary(w io.Writer, records []Record) error {
	bw := bufio.NewWriter(w)
	var hdr [10]byte
	binary.BigEndian.PutUint32(hdr[0:], Magic)
	binary.BigEndian.PutUint16(hdr[4:], Version)
	binary.BigEndian.PutUint32(hdr[6:], uint32(len(records)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	var buf [recordSize]byte
	for _, r := range records {
		binary.BigEndian.PutUint64(buf[0:], math.Float64bits(r.TimeMS))
		var flags byte
		if r.Write {
			flags |= 1
		}
		buf[8] = flags
		if r.Part < 0 || r.Part > 255 {
			return fmt.Errorf("trace: partition %d does not fit the format", r.Part)
		}
		buf[9] = byte(r.Part)
		binary.BigEndian.PutUint64(buf[10:], uint64(r.Block))
		if _, err := bw.Write(buf[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ScanBinary reads a binary trace stream record by record, calling emit
// for each. It never materializes the whole trace, so arbitrarily large
// streams parse in constant memory. An error from emit aborts the scan
// and is returned unchanged.
func ScanBinary(r io.Reader, emit func(Record) error) error {
	br := bufio.NewReader(r)
	var hdr [10]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return fmt.Errorf("%w: %v", ErrBadHeader, err)
	}
	if binary.BigEndian.Uint32(hdr[0:]) != Magic {
		return ErrBadHeader
	}
	if v := binary.BigEndian.Uint16(hdr[4:]); v != Version {
		return fmt.Errorf("%w: version %d", ErrBadHeader, v)
	}
	n := int(binary.BigEndian.Uint32(hdr[6:]))
	var buf [recordSize]byte
	for i := 0; i < n; i++ {
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			return fmt.Errorf("trace: truncated at record %d: %w", i, err)
		}
		rec := Record{
			TimeMS: math.Float64frombits(binary.BigEndian.Uint64(buf[0:])),
			Write:  buf[8]&1 != 0,
			Part:   int(buf[9]),
			Block:  int64(binary.BigEndian.Uint64(buf[10:])),
		}
		if err := emit(rec); err != nil {
			return err
		}
	}
	return nil
}

// WriteText writes records as one line each: "<timeMS> <R|W> <part>
// <block>". Times are formatted with the shortest decimal that parses
// back to the identical float64, so a text round trip is lossless —
// the same guarantee the binary format gives.
func WriteText(w io.Writer, records []Record) error {
	bw := bufio.NewWriter(w)
	var scratch [32]byte
	for _, r := range records {
		dir := " R "
		if r.Write {
			dir = " W "
		}
		if _, err := bw.Write(strconv.AppendFloat(scratch[:0], r.TimeMS, 'f', -1, 64)); err != nil {
			return err
		}
		if _, err := bw.WriteString(dir); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(bw, "%d %d\n", r.Part, r.Block); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ScanText parses the text format line by line, calling emit for each
// record. An error from emit aborts the scan and is returned unchanged.
func ScanText(r io.Reader, emit func(Record) error) error {
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Text()) == 0 {
			continue
		}
		var rec Record
		var dir string
		if _, err := fmt.Sscanf(sc.Text(), "%f %s %d %d", &rec.TimeMS, &dir, &rec.Part, &rec.Block); err != nil {
			return fmt.Errorf("trace: line %d: %w", line, err)
		}
		switch dir {
		case "R":
		case "W":
			rec.Write = true
		default:
			return fmt.Errorf("trace: line %d: direction %q", line, dir)
		}
		if err := emit(rec); err != nil {
			return err
		}
	}
	return sc.Err()
}

// Capture records every file system block request issued to the driver
// while attached. It consumes the driver's telemetry event stream,
// keeping only the KindRequest events (the pre-translation block
// addresses a trace replays).
type Capture struct {
	eng     *sim.Engine
	drv     *driver.Driver
	records []Record
}

// NewCapture attaches a capture sink to the driver. It replaces any
// sink already attached; detach it with Close before attaching another.
func NewCapture(eng *sim.Engine, drv *driver.Driver) *Capture {
	c := &Capture{eng: eng, drv: drv}
	drv.SetSink(telemetry.SinkFunc(func(e *telemetry.Event) {
		if e.Kind != telemetry.KindRequest {
			return
		}
		c.records = append(c.records, Record{
			TimeMS: e.TimeMS,
			Write:  e.Write,
			Part:   e.Part,
			Block:  e.Block,
		})
	}))
	return c
}

// Records returns the captured records.
func (c *Capture) Records() []Record { return c.records }

// Close detaches the capture sink.
func (c *Capture) Close() { c.drv.SetSink(nil) }
