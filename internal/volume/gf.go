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
// The tables are tiny (768 bytes) and built once at init; the hot
// helpers below work block-at-a-time over []byte so the parity of an
// 8 KB block is two table lookups plus an XOR per byte, with no
// allocation.

import "crypto/subtle"

var (
	gfExp [512]byte // g^i, doubled so products index without a mod
	gfLog [256]byte // log_g, gfLog[0] unused
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
}

// gfMul multiplies two field elements.
func gfMul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return gfExp[int(gfLog[a])+int(gfLog[b])]
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
// byte by byte instead of into a buffer of its own. coef is nonzero.
func gfMulAddDelta(dst, base []byte, coef byte, a, b []byte) {
	lc := int(gfLog[coef])
	_, _, _ = dst[len(base)-1], a[len(base)-1], b[len(base)-1]
	for i, p := range base {
		if d := a[i] ^ b[i]; d != 0 {
			p ^= gfExp[lc+int(gfLog[d])]
		}
		dst[i] = p
	}
}

// gfMulAddInto accumulates a scaled block: dst ^= coef·src.
func gfMulAddInto(dst []byte, coef byte, src []byte) {
	if coef == 0 {
		return
	}
	if coef == 1 {
		xorInto(dst, src)
		return
	}
	lc := int(gfLog[coef])
	_ = dst[len(src)-1]
	for i, s := range src {
		if s != 0 {
			dst[i] ^= gfExp[lc+int(gfLog[s])]
		}
	}
}

// gfMulInto scales a block in place: dst = coef·dst.
func gfMulInto(dst []byte, coef byte) {
	if coef == 1 {
		return
	}
	if coef == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return
	}
	lc := int(gfLog[coef])
	for i, d := range dst {
		if d != 0 {
			dst[i] = gfExp[lc+int(gfLog[d])]
		}
	}
}
