package mpi

import (
	"math"
	"testing"
)

// applyOracle is the combine Op.apply replaced, kept as its oracle: decode
// the wire vector into floats, then combine them into dst.
func applyOracle(op Op, dst []float64, wire []byte) {
	src := decodeFloats(wire)
	for i := range dst {
		switch op {
		case OpSum:
			dst[i] += src[i]
		case OpProd:
			dst[i] *= src[i]
		case OpMax:
			if src[i] > dst[i] {
				dst[i] = src[i]
			}
		case OpMin:
			if src[i] < dst[i] {
				dst[i] = src[i]
			}
		}
	}
}

// FuzzOpApply holds Op.apply, which reads the little-endian floats in
// place, to decode-then-combine, bit for bit, for every operator. The
// input's first 8n bytes are dst and the next 8n the wire vector, n ≤ 64.
//
// One result is exempt from the bit comparison: the payload of a sum or
// product of two NaNs. x86 returns the NaN in the destination register,
// the compiler may put either operand of a commutative operation there
// (Op.apply keeps the wire value in the register, the oracle dst), and
// neither IEEE 754 nor Go says which payload wins. There both results
// must be NaN.
func FuzzOpApply(f *testing.F) {
	seed := func(dstThenSrc ...float64) { f.Add(uint8(len(dstThenSrc)/2), encodeFloats(dstThenSrc)) }
	nan := math.Float64frombits
	negZero := math.Copysign(0, -1)
	seed()
	seed(1, 2, -3, 4)
	seed(math.NaN(), 1, nan(0x7ff0000000000001), nan(0xfff8dead00000000), 2, math.NaN(), nan(0x7ff4000000000000), -1)
	seed(math.Inf(1), math.Inf(-1), negZero, 0, math.Inf(-1), math.Inf(1), 0, negZero)
	seed(math.MaxFloat64, 5e-324, math.MaxFloat64, -5e-324)
	seed(make([]float64, 128)...)
	f.Fuzz(func(t *testing.T, length uint8, raw []byte) {
		n := min(int(length)%65, len(raw)/16)
		dst, src := decodeFloats(raw[:8*n]), decodeFloats(raw[8*n:16*n])
		want, got := make([]float64, n), make([]float64, n)
		for _, op := range []Op{OpSum, OpMax, OpMin, OpProd} {
			copy(want, dst)
			copy(got, dst)
			applyOracle(op, want, raw[8*n:16*n])
			op.apply(got, raw[8*n:16*n])
			for i := range want {
				if arith := op == OpSum || op == OpProd; arith && math.IsNaN(dst[i]) && math.IsNaN(src[i]) {
					if !math.IsNaN(got[i]) || !math.IsNaN(want[i]) {
						t.Fatalf("%s of two NaNs at element %d: %v, the oracle's %v", op, i, got[i], want[i])
					}
				} else if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s over %d floats: element %d is %x, the oracle's %x", op, n, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
				}
			}
		}
	})
}
