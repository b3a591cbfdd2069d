package mpi

import (
	"encoding/binary"
	"math"
	"testing"
)

// combineOracle is one element of Op.apply, written out on scalars.
func combineOracle(op Op, acc, x float64) float64 {
	switch op {
	case OpSum:
		return acc + x
	case OpProd:
		return acc * x
	case OpMax:
		if x > acc {
			return x
		}
	case OpMin:
		if x < acc {
			return x
		}
	}
	return acc
}

// FuzzOpApply holds the fold Allreduce runs, Op.apply over a meeting's
// vectors laid end to end, to the scalar oracle combined element by
// element in binomial-tree order, bit for bit, for every operator. One
// meeting folds under all four operators in turn, so each fold reuses the
// last one's buffer, and none may change the members' vectors. The input
// names 1 to 17 ranks, and its bytes are their vectors of up to 64
// little-endian floats, one after another.
//
// One result is exempt from the bit comparison: the payload of a NaN sum
// or product. x86 returns the NaN in the destination register, the
// compiler may put either operand of a commutative operation there, and
// neither IEEE 754 nor Go says which payload wins. There both results
// must be NaN.
func FuzzOpApply(f *testing.F) {
	seed := func(ranks uint8, xs ...float64) {
		raw := make([]byte, 0, 8*len(xs))
		for _, x := range xs {
			raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(x))
		}
		f.Add(ranks, raw)
	}
	nan := math.Float64frombits
	negZero := math.Copysign(0, -1)
	seed(1)
	seed(1, 1, 2, -3, 4)
	seed(3, math.NaN(), 1, nan(0x7ff0000000000001), nan(0xfff8dead00000000), 2, math.NaN(), nan(0x7ff4000000000000), -1)
	seed(2, math.Inf(1), math.Inf(-1), negZero, 0, math.Inf(-1), math.Inf(1), 0, negZero, 1)
	seed(4, math.MaxFloat64, 5e-324, math.MaxFloat64, -5e-324, 1e308)
	seed(16, make([]float64, 17*4)...)
	f.Fuzz(func(t *testing.T, ranks uint8, raw []byte) {
		n := 1 + int(ranks)%17
		k := min(len(raw)/(8*n), 64)
		vecs, orig := make([][]float64, n), make([][]float64, n)
		for r := range vecs {
			vecs[r], orig[r] = make([]float64, k), make([]float64, k)
			for i := range k {
				x := math.Float64frombits(binary.LittleEndian.Uint64(raw[8*(r*k+i):]))
				vecs[r][i], orig[r][i] = x, x
			}
		}
		m := &meeting{vals: vecs}
		col := make([]float64, n)
		for _, op := range []Op{OpSum, OpMax, OpMin, OpProd} {
			m.reduce(op)
			for i := range k {
				for r := range col {
					col[r] = orig[r][i]
				}
				want := binomialFold(col, func(acc, x float64) float64 { return combineOracle(op, acc, x) })
				got := m.acc[i]
				if arith := op == OpSum || op == OpProd; arith && math.IsNaN(want) {
					if !math.IsNaN(got) {
						t.Fatalf("%s of %d ranks: element %d is %v, the oracle's NaN", op, n, i, got)
					}
				} else if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s of %d ranks × %d floats: element %d is %x, the oracle's %x", op, n, k, i, math.Float64bits(got), math.Float64bits(want))
				}
			}
			for r, v := range vecs {
				for i := range v {
					if math.Float64bits(v[i]) != math.Float64bits(orig[r][i]) {
						t.Fatalf("%s changed rank %d's vector at %d: %v, was %v", op, r, i, v[i], orig[r][i])
					}
				}
			}
		}
	})
}
