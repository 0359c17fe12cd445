// Package fault models an imperfect disk: a deterministic, seedable
// fault plan that the disk and driver consult on every device
// operation.
//
// The paper's safety argument (Section 4.1.2 and the DKIOCBCOPY
// protocol) is that block rearrangement survives media errors and
// crashes: copies go to a free block first, the on-disk table is
// updated with dirty bits, and recovery marks all entries dirty. A
// simulator can only check that argument if its disk can actually
// fail, so a Plan describes three fault dimensions:
//
//   - permanent media errors on configured sector ranges (grown
//     defects: every access to an overlapping range fails);
//   - transient errors with a per-operation probability, drawn from a
//     deterministic generator keyed by (seed, operation index) so a
//     run's fault sequence is byte-identical for any worker count;
//   - crash points — simulated power loss after N device operations,
//     or at the K-th occurrence of a named driver phase (mid
//     block-copy, mid table write) — which truncate the in-flight
//     write to a torn, partial sector image and kill the device.
//
// The zero Plan injects nothing; a nil *Injector is the zero-cost
// path (a single pointer comparison on the device hot path).
package fault

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Class discriminates injected fault kinds.
type Class uint8

const (
	// Transient is a soft error: retrying the same operation draws a
	// fresh outcome and usually succeeds.
	Transient Class = iota + 1
	// Media is a permanent error: the sector range is bad and every
	// access fails until the block is remapped elsewhere.
	Media
	// Crash is simulated power loss: the in-flight write is torn and
	// the device stops servicing operations.
	Crash
)

// String names the class for errors and telemetry.
func (c Class) String() string {
	switch c {
	case Transient:
		return "transient"
	case Media:
		return "media"
	case Crash:
		return "crash"
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// ErrCrash is wrapped by every fault error delivered after (or at)
// the simulated power loss.
var ErrCrash = errors.New("fault: simulated power loss")

// Error is the injected device error. The driver classifies it with
// errors.As to choose between retry, remap, and propagation.
type Error struct {
	Class  Class
	Write  bool
	Sector int64
	Count  int
	// Op is the device operation index at which the fault fired.
	Op int64
}

// Error implements the error interface.
func (e *Error) Error() string {
	dir := "read"
	if e.Write {
		dir = "write"
	}
	return fmt.Sprintf("fault: %s error on %s of [%d, %d) at op %d",
		e.Class, dir, e.Sector, e.Sector+int64(e.Count), e.Op)
}

// Unwrap lets errors.Is(err, ErrCrash) identify power loss.
func (e *Error) Unwrap() error {
	if e.Class == Crash {
		return ErrCrash
	}
	return nil
}

// SectorRange is a half-open range [Start, End) of physical sectors.
type SectorRange struct {
	Start, End int64
}

// overlaps reports whether the range intersects [sector, sector+count).
func (r SectorRange) overlaps(sector int64, count int) bool {
	return sector < r.End && sector+int64(count) > r.Start
}

// Plan is a declarative fault schedule. Plans are plain data: copy
// them freely, encode them in experiment setups, parse them from the
// command line. The zero value injects no faults.
type Plan struct {
	// Seed keys the deterministic per-operation generator. Zero is a
	// valid seed (it is remapped internally to a fixed constant).
	Seed uint64
	// Bad lists permanently unreadable/unwritable sector ranges.
	Bad []SectorRange
	// TransientRead and TransientWrite are per-operation probabilities
	// of a soft error, in [0, 1).
	TransientRead  float64
	TransientWrite float64
	// CrashAfterOps, when positive, cuts power on the Nth device
	// operation (1-based).
	CrashAfterOps int64
	// CrashPhase, when non-empty, cuts power at a named driver phase
	// ("bcopy-copy", "table-write", ...). CrashPhaseSkip phase
	// occurrences are let through first, so a harness can crash the
	// K-th block copy rather than the first.
	CrashPhase     string
	CrashPhaseSkip int
}

// Active reports whether the plan can inject anything.
func (p Plan) Active() bool {
	return len(p.Bad) > 0 || p.TransientRead > 0 || p.TransientWrite > 0 ||
		p.CrashAfterOps > 0 || p.CrashPhase != ""
}

// String renders the plan in ParsePlan's grammar (diagnostics, job
// labels).
func (p Plan) String() string {
	var parts []string
	if p.Seed != 0 {
		parts = append(parts, "seed="+strconv.FormatUint(p.Seed, 10))
	}
	for _, r := range p.Bad {
		parts = append(parts, fmt.Sprintf("bad=%d-%d", r.Start, r.End))
	}
	if p.TransientRead > 0 {
		parts = append(parts, "tread="+strconv.FormatFloat(p.TransientRead, 'g', -1, 64))
	}
	if p.TransientWrite > 0 {
		parts = append(parts, "twrite="+strconv.FormatFloat(p.TransientWrite, 'g', -1, 64))
	}
	if p.CrashAfterOps > 0 {
		parts = append(parts, "crash-after="+strconv.FormatInt(p.CrashAfterOps, 10))
	}
	if p.CrashPhase != "" {
		s := "crash-at=" + p.CrashPhase
		if p.CrashPhaseSkip > 0 {
			s += ":" + strconv.Itoa(p.CrashPhaseSkip)
		}
		parts = append(parts, s)
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ";")
}

// ParsePlan parses the -fault-plan grammar: semicolon- or
// comma-separated directives.
//
//	seed=S             generator seed
//	bad=LO-HI          permanent media errors on sectors [LO, HI) (repeatable)
//	tread=P            transient error probability per read
//	twrite=P           transient error probability per write
//	transient=P        shorthand for tread=P;twrite=P
//	crash-after=N      power loss on the Nth device operation
//	crash-at=PHASE[:K] power loss at the (K+1)-th operation of the named phase
//
// An empty spec returns the zero plan.
func ParsePlan(spec string) (Plan, error) {
	var p Plan
	for _, tok := range strings.FieldsFunc(spec, func(r rune) bool { return r == ';' || r == ',' }) {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		key, val, ok := strings.Cut(tok, "=")
		if !ok {
			return Plan{}, fmt.Errorf("fault: directive %q is not key=value", tok)
		}
		switch key {
		case "seed":
			s, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return Plan{}, fmt.Errorf("fault: bad seed %q", val)
			}
			p.Seed = s
		case "bad":
			lo, hi, ok := strings.Cut(val, "-")
			if !ok {
				return Plan{}, fmt.Errorf("fault: bad range %q, want LO-HI", val)
			}
			start, err1 := strconv.ParseInt(lo, 10, 64)
			end, err2 := strconv.ParseInt(hi, 10, 64)
			if err1 != nil || err2 != nil || start < 0 || end <= start {
				return Plan{}, fmt.Errorf("fault: bad range %q", val)
			}
			p.Bad = append(p.Bad, SectorRange{Start: start, End: end})
		case "tread", "twrite", "transient":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil || f < 0 || f >= 1 {
				return Plan{}, fmt.Errorf("fault: probability %q outside [0, 1)", val)
			}
			if key != "twrite" {
				p.TransientRead = f
			}
			if key != "tread" {
				p.TransientWrite = f
			}
		case "crash-after":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil || n <= 0 {
				return Plan{}, fmt.Errorf("fault: crash-after %q must be a positive op count", val)
			}
			p.CrashAfterOps = n
		case "crash-at":
			phase, skip, hasSkip := strings.Cut(val, ":")
			if phase == "" {
				return Plan{}, fmt.Errorf("fault: crash-at needs a phase name")
			}
			p.CrashPhase = phase
			if hasSkip {
				k, err := strconv.Atoi(skip)
				if err != nil || k < 0 {
					return Plan{}, fmt.Errorf("fault: crash-at skip %q", skip)
				}
				p.CrashPhaseSkip = k
			}
		default:
			return Plan{}, fmt.Errorf("fault: unknown directive %q", key)
		}
	}
	sort.Slice(p.Bad, func(i, j int) bool { return p.Bad[i].Start < p.Bad[j].Start })
	return p, nil
}

// Injector is the runtime consulted by the disk on every device
// operation. It is single-threaded, like everything on a simulation
// engine; the per-operation draws depend only on (seed, op index), so
// two runs with the same plan and the same operation sequence inject
// identical faults regardless of how jobs are scheduled onto workers.
type Injector struct {
	plan    Plan
	ops     int64
	phase   string
	phaseN  map[string]int
	crashed bool
}

// NewInjector returns an injector executing the plan. A nil receiver
// is valid everywhere and injects nothing.
func NewInjector(p Plan) *Injector {
	return &Injector{plan: p, phaseN: make(map[string]int)}
}

// Ops returns the number of device operations observed so far.
func (in *Injector) Ops() int64 {
	if in == nil {
		return 0
	}
	return in.ops
}

// Crashed reports whether the simulated power loss has happened.
func (in *Injector) Crashed() bool { return in != nil && in.crashed }

// SetPhase tags subsequent operations with a driver phase name
// ("bcopy-copy", "table-write", ...). The driver sets it around each
// dispatched operation; an empty name clears the tag.
func (in *Injector) SetPhase(phase string) {
	if in != nil {
		in.phase = phase
	}
}

// BeginOp accounts one device operation and returns the injected
// fault, or nil. Crash outcomes take precedence over media errors,
// which take precedence over transient errors. After a crash every
// operation fails with a Crash-class error.
func (in *Injector) BeginOp(write bool, sector int64, count int) *Error {
	if in == nil {
		return nil
	}
	in.ops++
	mk := func(c Class) *Error {
		return &Error{Class: c, Write: write, Sector: sector, Count: count, Op: in.ops}
	}
	if in.crashed {
		return mk(Crash)
	}
	if in.plan.CrashAfterOps > 0 && in.ops >= in.plan.CrashAfterOps {
		in.crashed = true
		return mk(Crash)
	}
	if in.plan.CrashPhase != "" && in.phase == in.plan.CrashPhase {
		n := in.phaseN[in.phase]
		in.phaseN[in.phase] = n + 1
		if n >= in.plan.CrashPhaseSkip {
			in.crashed = true
			return mk(Crash)
		}
	}
	for _, r := range in.plan.Bad {
		if r.overlaps(sector, count) {
			return mk(Media)
		}
	}
	prob := in.plan.TransientRead
	if write {
		prob = in.plan.TransientWrite
	}
	if prob > 0 && in.draw(in.ops) < prob {
		return mk(Transient)
	}
	return nil
}

// TornBytes returns the deterministic length, in [0, total), of the
// prefix a crashed write managed to put on the media — generally a
// torn, partial sector image. The draw is keyed by the crash
// operation's index, so the torn image is reproducible.
func (in *Injector) TornBytes(total int) int {
	if in == nil || total <= 0 {
		return 0
	}
	return int(in.hash(uint64(in.ops)^0xC2B2AE3D27D4EB4F) % uint64(total))
}

// draw returns a uniform float64 in [0, 1) keyed by (seed, op index).
func (in *Injector) draw(op int64) float64 {
	return float64(in.hash(uint64(op))>>11) / (1 << 53)
}

// hash is a splitmix64-style mix of the plan seed and a key: stateless,
// so an operation's outcome never depends on how many draws other
// components made.
func (in *Injector) hash(key uint64) uint64 {
	seed := in.plan.Seed
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	z := seed ^ (key * 0xBF58476D1CE4E5B9)
	z ^= z >> 30
	z *= 0x94D049BB133111EB
	z ^= z >> 27
	z *= 0xFF51AFD7ED558CCD
	z ^= z >> 31
	return z
}
