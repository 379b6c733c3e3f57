package quant

import (
	"encoding/binary"
	"math"
	"runtime"
	"testing"

	"micronn/internal/vec"
)

// FuzzSQ8Kernel checks DistancesMany's SQ8 L2 path, the assembly kernel
// where the CPU runs it, against polyAcc bit for bit: over arbitrary code
// bytes and coefficient bits (NaN and infinities included), at dimensions
// with and without a tail past the 8-byte blocks, and at batch sizes 1–9
// around the kernel's 4-row step. Two NaNs count as equal: the kernels may
// propagate different NaN payloads.
func FuzzSQ8Kernel(f *testing.F) {
	f.Add([]byte{0, 1, 2, 255, 128, 7}, []byte{0, 0, 128, 63, 0, 0, 0, 64}, uint8(3), uint8(5))
	f.Add([]byte{255}, []byte{0, 0, 128, 127, 0, 0, 192, 127}, uint8(0), uint8(9))
	f.Add([]byte{}, []byte{1, 2, 3}, uint8(6), uint8(1))
	dims := []int{8, 16, 24, 128, 1, 7, 12, 37, 130}
	f.Fuzz(func(t *testing.T, codes, coeffs []byte, dimSel, nSel uint8) {
		dim := dims[int(dimSel)%len(dims)]
		n := 1 + int(nSel)%9
		// Coefficients are the input's float32 bits, cycled; constant is
		// the first word.
		word := func(i int) float32 {
			if len(coeffs) < 4 {
				return float32(i%5) - 1.5
			}
			j := (4 * i) % (len(coeffs) - 3)
			return math.Float32frombits(binary.LittleEndian.Uint32(coeffs[j:]))
		}
		lin, quad := make([]float32, dim), make([]float32, dim)
		for d := range lin {
			lin[d], quad[d] = word(1+2*d), word(2+2*d)
		}
		packed := make([]byte, n*dim)
		for i := range packed {
			if len(codes) > 0 {
				packed[i] = codes[i%len(codes)] + byte(i/len(codes))
			}
		}
		qq := &Query{metric: vec.L2, codeSize: dim, constant: word(0), lin: lin, quad: quad}
		out := make([]float32, n)
		qq.DistancesMany(packed, n, out)
		for i := range out {
			want := qq.constant + polyAcc(packed[i*dim:(i+1)*dim], lin, quad)
			got := out[i]
			if math.Float32bits(got) != math.Float32bits(want) && !(got != got && want != want) {
				t.Fatalf("dim %d, row %d of %d: DistancesMany %v (%#x), polyAcc %v (%#x)", dim, i, n, got, math.Float32bits(got), want, math.Float32bits(want))
			}
		}
	})
}

// TestSQ8KernelCoversFullBlocks: on a CPU with the assembly kernel, a
// batch at a multiple-of-8 dimension is scored by it up to the last full
// 4-row step, and not at all at a dimension with a tail.
func TestSQ8KernelCoversFullBlocks(t *testing.T) {
	if !hasSQ8Kernel {
		t.Skip("no SQ8 assembly kernel on this CPU")
	}
	lin, quad := make([]float32, 16), make([]float32, 16)
	out := make([]float32, 9)
	codes := make([]byte, 9*16)
	if got := sq8L2Rows(codes, 16, 9, lin, quad, 0, out); got != 8 {
		t.Fatalf("dim 16, 9 rows: kernel scored %d rows, want 8", got)
	}
	if got := sq8L2Rows(codes[:9*12], 12, 9, lin[:12], quad[:12], 0, out); got != 0 {
		t.Fatalf("dim 12: kernel scored %d rows, want 0", got)
	}
}

// TestNewQuerySQ8L2AllocatesNoTable: an SQ8 L2 query holds its 2·dim
// coefficients and no per-byte table, so NewQuery at dim 128 allocates
// under 2 KiB (a dim×256 float32 table alone is 128 KiB).
func TestNewQuerySQ8L2AllocatesNoTable(t *testing.T) {
	const dim, runs = 128, 100
	vectors := randVectors(41, 50, dim, 3)
	cb := trainOn(vectors)
	q := randVectors(42, 1, dim, 3)[0]
	var keep *Query
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		keep = cb.NewQuery(vec.L2, q)
	}
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(keep)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 2048 {
		t.Fatalf("NewQuery(SQ8, L2, dim %d) allocates %d bytes, want under 2048", dim, per)
	}
}
