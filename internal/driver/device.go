package driver

import (
	"repro/internal/geom"
	"repro/internal/label"
)

// BlockDevice is the block-device interface the file system and buffer
// cache consume: partition-relative block I/O plus the label that
// describes the partitions. *Driver implements it for a single disk;
// volume.Volume implements it for a logical volume composed of several
// disks, so the layers above are indifferent to how many spindles sit
// underneath.
//
// Block payloads are immutable in both directions, so one block's bytes
// are stored once and passed on by reference at every layer.
type BlockDevice interface {
	// ReadBlock issues a read of one file system block of the given
	// partition; done fires at completion in simulated time. What done
	// is handed is read-only and shared (see DoneFunc): the device never
	// changes or reuses it, and the receiver must not modify it.
	ReadBlock(part int, blk int64, done DoneFunc)
	// WriteBlock issues a write of one file system block. data must be
	// exactly one block long, and is read-only from the call on: the
	// device may keep the buffer as its stored copy of the block and
	// hand it to later readers, so the caller must never modify it
	// again. Callers may pass one unchanging buffer to any number of
	// writes (devtest checks this).
	WriteBlock(part int, blk int64, data []byte, done DoneFunc)
	// BlockSize returns the device's file system block size.
	BlockSize() geom.BlockSize
	// Label returns the label describing the device's partitions and
	// the geometry presented to the file system.
	Label() *label.Label
}

// *Driver is the single-disk BlockDevice.
var _ BlockDevice = (*Driver)(nil)
