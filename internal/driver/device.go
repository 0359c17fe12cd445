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
type BlockDevice interface {
	// ReadBlock issues a read of one file system block of the given
	// partition; done fires at completion in simulated time.
	ReadBlock(part int, blk int64, done DoneFunc)
	// WriteBlock issues a write of one file system block. data must be
	// exactly one block long. The device holds the buffer until the
	// write completes and only ever reads it, and the caller must not
	// modify it in that time; callers may therefore pass one unchanging
	// buffer to any number of writes (devtest checks this).
	WriteBlock(part int, blk int64, data []byte, done DoneFunc)
	// BlockSize returns the device's file system block size.
	BlockSize() geom.BlockSize
	// Label returns the label describing the device's partitions and
	// the geometry presented to the file system.
	Label() *label.Label
}

// *Driver is the single-disk BlockDevice.
var _ BlockDevice = (*Driver)(nil)
