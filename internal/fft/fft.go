// Package fft implements the P3DFFT-like workload of Section VIII-D: a
// distributed 3D fast Fourier transform whose inter-process transposes run
// as nonblocking all-to-all exchanges overlapped with the local FFT
// computation.
//
// Two modes exist:
//
//   - a real-math mode (PencilPlan): complex128 data, radix-2 kernels, the
//     2D pencil decomposition P3DFFT uses, its two transposes packed
//     all-to-alls on the grid's row and column communicators through the
//     rank's collective backend — used to verify that offloaded
//     collectives move FFT data correctly (forward∘backward == identity);
//   - a figure-scale mode (RunBench): the application's communication
//     skeleton — two back-to-back Ialltoalls per phase overlapped with
//     modelled FFT compute, exactly the profile of Figure 16(c) — with
//     size-only payloads so 512-rank runs fit in memory.
package fft

import "math"

// Transform performs an in-place iterative radix-2 FFT on a. The length
// must be a power of two. If inverse is set, the inverse transform is
// applied (including the 1/n scaling), so Transform(Transform(a)) == a.
func Transform(a []complex128, inverse bool) {
	n := len(a)
	if n&(n-1) != 0 {
		panic("fft: length not a power of two")
	}
	if n < 2 {
		return
	}
	// Bit-reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			a[i], a[j] = a[j], a[i]
		}
	}
	for length := 2; length <= n; length <<= 1 {
		ang := 2 * math.Pi / float64(length)
		if !inverse {
			ang = -ang
		}
		wl := complex(math.Cos(ang), math.Sin(ang))
		for i := 0; i < n; i += length {
			w := complex(1, 0)
			half := length >> 1
			for j := 0; j < half; j++ {
				u := a[i+j]
				v := a[i+j+half] * w
				a[i+j] = u + v
				a[i+j+half] = u - v
				w *= wl
			}
		}
	}
	if inverse {
		inv := complex(1/float64(n), 0)
		for i := range a {
			a[i] *= inv
		}
	}
}

// Flops estimates the floating-point operations of one length-n FFT
// (the standard 5·n·log2(n)).
func Flops(n int) float64 {
	if n < 2 {
		return 0
	}
	return 5 * float64(n) * math.Log2(float64(n))
}
