package disk

import "repro/internal/geom"

// Read buffers are recycled. Read hands its caller a buffer the caller
// owns; the last owner of such a buffer may pass it to Recycle, and the
// next block-size read takes it instead of a fresh allocation. An 8 KB
// object is a size class of its own — one object per span — so a read
// whose buffer is dropped unread (a trace replay, a tenant request)
// used to initialise, clear and later sweep a whole span; with the
// buffer handed back it costs two copies of 8 KB.
//
// Not recycling is always correct: the buffer is ordinary garbage, as
// every read buffer used to be. Recycling a buffer that someone still
// holds is the one bug this adds, so Recycle fills the buffer with a
// fixed poison byte before pooling it: a use-after-recycle reads the
// same wrong bytes on every run, whatever the harness's worker count.

// bufBytes is the one size pooled: a file system block (geom.Block8K),
// which is also one page of the sparse store.
const bufBytes = pageSectors * geom.SectorSize

// poison is the byte a recycled buffer is filled with.
const poison = 0xDB

// poisonPage is what Recycle copies over a buffer (memmove, where a
// byte loop would cost more than the read it follows).
var poisonPage = func() (p [bufBytes]byte) {
	for i := range p {
		p[i] = poison
	}
	return p
}()

// freeBufs is the process-wide free list, shared by every disk of
// every engine the harness runs side by side. A buffered channel keeps
// it goroutine-safe and bounded: Recycle drops what does not fit, so a
// consumer that hands back buffers no disk read ever takes (a device
// that allocates its own) cannot grow the process. A buffer a consumer
// drops at once lives from the disk's service of a read to its
// delivery, so the population in flight is a few per spindle, or a
// stripe row's width per parity request; 256 (2 MB) covers 48 clients
// on RAID-6 with room to spare. A buffer cache keeps what its misses
// read for as long as the block stays cached, but hands back one
// buffer per eviction, which a miss — a read that takes one — caused;
// only a pressure drop returns a batch, and what overflows is garbage.
var freeBufs = make(chan *[bufBytes]byte, 256)

// takeBuf returns an n-byte buffer and whether it has been used before.
// A used buffer holds poison, not zeros.
func takeBuf(n int) (buf []byte, used bool) {
	if n == bufBytes {
		select {
		case b := <-freeBufs:
			return b[:], true
		default:
		}
	}
	return make([]byte, n), false
}

// Buffer returns an n-byte scratch buffer from the read-buffer pool;
// its contents are unspecified and the caller must overwrite every
// byte it later reads. Hand it back with Recycle.
func Buffer(n int) []byte {
	buf, _ := takeBuf(n)
	return buf
}

// Recycle hands buf back to the pool. The caller must own buf — it was
// delivered by a read, or came from Buffer — and must not touch it
// afterwards. Buffers of any other size than the pooled one, and
// buffers the pool has no room for, are left to the garbage collector.
func Recycle(buf []byte) {
	if cap(buf) != bufBytes {
		return
	}
	b := (*[bufBytes]byte)(buf[:bufBytes])
	*b = poisonPage
	select {
	case freeBufs <- b:
	default:
	}
}
