package volume

// GF(2^8) arithmetic for the RAID-6 Q parity, in the standard
// Linux-md/Anvin construction: the field is GF(2)[x] modulo the
// primitive polynomial x^8+x^4+x^3+x^2+1 (0x11d), the generator is
// g = 2, and the Q syndrome of a stripe row is
//
//	Q = Σ_c g^c · D_c
//
// over the row's data columns c. P is the plain XOR of the same
// columns. With both syndromes any two erasures are solvable; with
// only one, a single erasure is.
//
// The log/exp tables (768 bytes) are built once at init, and from them
// the 64 KB product table gfTab, whose row a is every product a·b: the
// block helpers below scale a block by a coefficient through one
// 256-byte row, a lookup and an XOR per byte with no zero test and no
// allocation. A zero block adds nothing to a parity sum, so a parity
// block or solved column with at most one non-zero operand is that
// operand (sole, isZero), up to its coefficient: parity.go hands the
// operand's buffer on where the coefficient is 1 instead of computing
// a copy.

import (
	"bytes"
	"crypto/subtle"
)

var (
	gfExp [512]byte      // g^i, doubled so products index without a mod
	gfLog [256]byte      // log_g, gfLog[0] unused
	gfTab [256][256]byte // gfTab[a][b] = a·b
)

func init() {
	x := byte(1)
	for i := 0; i < 255; i++ {
		gfExp[i] = x
		gfLog[x] = byte(i)
		// x *= g (g = 2): shift, reduce by 0x11d on overflow.
		carry := x&0x80 != 0
		x <<= 1
		if carry {
			x ^= 0x1d
		}
	}
	for i := 255; i < 512; i++ {
		gfExp[i] = gfExp[i-255]
	}
	for a := 1; a < 256; a++ {
		for b := 1; b < 256; b++ {
			gfTab[a][b] = gfExp[int(gfLog[a])+int(gfLog[b])]
		}
	}
}

// gfDiv divides a by b (b must be nonzero).
func gfDiv(a, b byte) byte {
	if a == 0 {
		return 0
	}
	return gfExp[int(gfLog[a])+255-int(gfLog[b])]
}

// gfPow returns g^e for a column exponent e >= 0.
func gfPow(e int) byte { return gfExp[e%255] }

// xorInto accumulates src into dst: dst[i] ^= src[i] for every byte of
// src, a word (or a vector) at a time. It panics if dst is the shorter.
func xorInto(dst, src []byte) {
	n := len(src)
	subtle.XORBytes(dst[:n], dst[:n], src)
}

// xor3 sets dst = a ⊕ b ⊕ c.
func xor3(dst, a, b, c []byte) {
	subtle.XORBytes(dst, a, b)
	xorInto(dst, c)
}

// gfMulAddDelta sets dst = base ⊕ coef·(a ⊕ b): a parity block updated
// for a data column that changed from a to b, with the delta computed
// byte by byte instead of into a buffer of its own.
func gfMulAddDelta(dst, base []byte, coef byte, a, b []byte) {
	row := &gfTab[coef]
	_, _, _ = dst[len(base)-1], a[len(base)-1], b[len(base)-1]
	for i, p := range base {
		dst[i] = p ^ row[a[i]^b[i]]
	}
}

// gfMulAddInto accumulates a scaled block: dst ^= coef·src.
func gfMulAddInto(dst []byte, coef byte, src []byte) {
	switch coef {
	case 0:
		return
	case 1:
		xorInto(dst, src)
		return
	}
	row := &gfTab[coef]
	_ = dst[len(src)-1]
	for i, s := range src {
		dst[i] ^= row[s]
	}
}

// gfMulInto scales a block in place: dst = coef·dst.
func gfMulInto(dst []byte, coef byte) {
	if coef == 1 {
		return
	}
	row := &gfTab[coef]
	for i, d := range dst {
		dst[i] = row[d]
	}
}

// zeros is what isZero compares a block against, a page at a time.
var zeros [8192]byte

// isZero reports whether b holds only zeros. A block with data in its
// first byte — most written blocks — costs one load; an all-zero one,
// such as the store's zero page every never-written block reads as, a
// word-wide compare.
func isZero(b []byte) bool {
	for len(b) > 0 {
		n := min(len(b), len(zeros))
		if b[0] != 0 || !bytes.Equal(b[:n], zeros[:n]) {
			return false
		}
		b = b[n:]
	}
	return true
}

// sole returns the one operand of ops that is not all zero, or ops[0]
// when every one is: the XOR of ops, since zero is its identity. With
// two or more non-zero operands there is no such block and it returns
// nil.
func sole(ops ...[]byte) []byte {
	var one []byte
	for _, b := range ops {
		if isZero(b) {
			continue
		}
		if one != nil {
			return nil
		}
		one = b
	}
	if one == nil {
		return ops[0]
	}
	return one
}
