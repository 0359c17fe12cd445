package volume

import (
	"bytes"
	"testing"

	"repro/internal/geom"
)

// gfMulRef is the per-byte product the kernels' product table replaces:
// the log/exp definition, with zero handled apart.
func gfMulRef(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return gfExp[int(gfLog[a])+int(gfLog[b])]
}

// FuzzGFKernels holds the product-row kernels, and solveRow's
// two-erasure path, to gfMulRef byte by byte for any coefficient and
// any blocks — zero bytes, zero blocks and equal operands included.
func FuzzGFKernels(f *testing.F) {
	f.Add(byte(0), []byte{1, 2, 3}, []byte{0, 2, 0}, []byte{9, 0, 7})
	f.Add(byte(1), []byte{0, 0, 0, 0}, []byte{0, 0, 0, 0}, []byte{5, 5, 5, 5})
	f.Add(byte(2), []byte{0xff, 0x80, 0x01}, []byte{0x80, 0x80, 0}, []byte{0, 0, 0})
	f.Add(byte(0x8e), []byte("a column of data"), []byte("another column!"), []byte("the old parity.."))
	f.Add(byte(255), bytes.Repeat([]byte{0x53}, 64), bytes.Repeat([]byte{0xca}, 64), make([]byte, 64))
	f.Fuzz(func(t *testing.T, coef byte, a, b, base []byte) {
		n := min(len(a), len(b), len(base))
		if n == 0 {
			return
		}
		a, b, base = a[:n], b[:n], base[:n]

		delta := make([]byte, n)
		gfMulAddDelta(delta, base, coef, a, b)
		acc := bytes.Clone(base)
		gfMulAddInto(acc, coef, a)
		scaled := bytes.Clone(a)
		gfMulInto(scaled, coef)
		for i := range base {
			if want := base[i] ^ gfMulRef(coef, a[i]^b[i]); delta[i] != want {
				t.Fatalf("gfMulAddDelta coef %#x byte %d: %#x, want %#x", coef, i, delta[i], want)
			}
			if want := base[i] ^ gfMulRef(coef, a[i]); acc[i] != want {
				t.Fatalf("gfMulAddInto coef %#x byte %d: %#x, want %#x", coef, i, acc[i], want)
			}
			if want := gfMulRef(coef, a[i]); scaled[i] != want {
				t.Fatalf("gfMulInto coef %#x byte %d: %#x, want %#x", coef, i, scaled[i], want)
			}
		}

		// A row of 2 to 5 columns drawn from the blocks, its P and Q by
		// the reference, and two of its columns erased.
		ndata := 2 + int(coef%4)
		src := [][]byte{a, b, base, delta, scaled}
		data := src[:ndata]
		p, q := make([]byte, n), make([]byte, n)
		for c, col := range data {
			for i, d := range col {
				p[i] ^= d
				q[i] ^= gfMulRef(gfExp[c], d)
			}
		}
		x := int(coef/4) % ndata
		y := (x + 1 + int(coef/16)%(ndata-1)) % ndata
		colv := append([][]byte(nil), data...)
		colv[x], colv[y] = nil, nil
		ra := &raid{v: &Volume{bs: geom.BlockSize(n)}}
		var pool [][]byte
		if left := ra.solveRow(colv, p, q, &pool); left != 0 {
			t.Fatalf("columns %d and %d of %d: %d unsolved", x, y, ndata, left)
		}
		for c := range data {
			if !bytes.Equal(colv[c], data[c]) {
				t.Fatalf("columns %d and %d of %d erased: column %d solved wrong", x, y, ndata, c)
			}
		}
	})
}
