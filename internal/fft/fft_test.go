package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/baseline"
	"repro/internal/bench"
)

func almostEqual(a, b complex128, tol float64) bool {
	return cmplx.Abs(a-b) <= tol
}

// naiveDFT is the O(n^2) reference.
func naiveDFT(a []complex128) []complex128 {
	n := len(a)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		for t := 0; t < n; t++ {
			ang := -2 * math.Pi * float64(k) * float64(t) / float64(n)
			out[k] += a[t] * cmplx.Exp(complex(0, ang))
		}
	}
	return out
}

func TestTransformMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{2, 4, 8, 16, 64} {
		a := make([]complex128, n)
		for i := range a {
			a[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		want := naiveDFT(a)
		got := append([]complex128(nil), a...)
		Transform(got, false)
		for i := range got {
			if !almostEqual(got[i], want[i], 1e-9*float64(n)) {
				t.Fatalf("n=%d: FFT[%d] = %v, want %v", n, i, got[i], want[i])
			}
		}
	}
}

func TestTransformRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 << (1 + rng.Intn(9))
		a := make([]complex128, n)
		for i := range a {
			a[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		orig := append([]complex128(nil), a...)
		Transform(a, false)
		Transform(a, true)
		for i := range a {
			if !almostEqual(a[i], orig[i], 1e-9*float64(n)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestTransformSineIsDelta(t *testing.T) {
	const n = 64
	a := make([]complex128, n)
	for i := range a {
		a[i] = complex(math.Sin(2*math.Pi*3*float64(i)/n), 0)
	}
	Transform(a, false)
	// A real sine of frequency 3 transforms to peaks at bins 3 and n-3.
	for k := 0; k < n; k++ {
		mag := cmplx.Abs(a[k])
		if k == 3 || k == n-3 {
			if mag < float64(n)/2-1e-6 {
				t.Fatalf("bin %d magnitude %v, want ~%v", k, mag, n/2)
			}
		} else if mag > 1e-6 {
			t.Fatalf("bin %d magnitude %v, want ~0", k, mag)
		}
	}
}

func TestTransformNonPow2Panics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Transform(make([]complex128, 6), false)
}

func TestRunBenchSchemes(t *testing.T) {
	for _, scheme := range []string{baseline.NameIntelMPI, baseline.NameProposed, baseline.NameBluesMPI} {
		res := RunBench(bench.Options{Nodes: 2, PPN: 2, Scheme: scheme}, 64, 64, 64, 1, 2)
		if res.Total <= 0 || res.Compute <= 0 {
			t.Fatalf("%s: bad result %+v", scheme, res)
		}
		if res.MPITime < 0 {
			t.Fatalf("%s: negative MPI time", scheme)
		}
		t.Logf("%s: total=%v compute=%v mpi=%v", scheme, res.Total, res.Compute, res.MPITime)
	}
}

func TestFlopsModel(t *testing.T) {
	if Flops(1) != 0 {
		t.Fatal("Flops(1) != 0")
	}
	if got := Flops(8); got != 5*8*3 {
		t.Fatalf("Flops(8) = %v, want 120", got)
	}
}
