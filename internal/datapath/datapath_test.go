package datapath

import "testing"

func TestKindStrings(t *testing.T) {
	cases := []struct {
		k    Kind
		want string
	}{
		{KindCrossGVMI, "gvmi"},
		{KindStaged, "staged"},
		{KindHostDirect, "hostdirect"},
		{Kind(7), "unknown(7)"},
		{Kind(-1), "unknown(-1)"},
	}
	for _, c := range cases {
		if got := c.k.String(); got != c.want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(c.k), got, c.want)
		}
	}
}

func TestKindValid(t *testing.T) {
	for _, k := range []Kind{KindCrossGVMI, KindStaged, KindHostDirect, KindDSA} {
		if !k.Valid() {
			t.Errorf("%v.Valid() = false", k)
		}
	}
	for _, k := range []Kind{-1, numKinds, 42} {
		if k.Valid() {
			t.Errorf("Kind(%d).Valid() = true", int(k))
		}
	}
}

func TestForKindRoundTrip(t *testing.T) {
	wantReg := map[Kind]SrcReg{
		KindCrossGVMI:  RegGVMI,
		KindStaged:     RegIB,
		KindHostDirect: RegNone,
		KindDSA:        RegIB,
	}
	for _, k := range []Kind{KindCrossGVMI, KindStaged, KindHostDirect, KindDSA} {
		dp := ForKind(k)
		if dp.Kind() != k {
			t.Errorf("ForKind(%v).Kind() = %v", k, dp.Kind())
		}
		if dp.SrcReg() != wantReg[k] {
			t.Errorf("ForKind(%v).SrcReg() = %v, want %v", k, dp.SrcReg(), wantReg[k])
		}
	}
}

func TestForKindPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ForKind(invalid) did not panic")
		}
	}()
	ForKind(Kind(99))
}

func TestResolveFallbacks(t *testing.T) {
	full := Caps{CrossGVMI: true} // pre-substrate caps: cross-GVMI yes, engine no
	noGVMI := Caps{CrossGVMI: false, DSA: false}
	noGVMIDSA := Caps{CrossGVMI: false, DSA: true}
	noDSA := Caps{CrossGVMI: true, DSA: false}
	both := Caps{CrossGVMI: true, DSA: true}
	cases := []struct {
		k    Kind
		c    Caps
		want Kind
	}{
		// Legal requests resolve to themselves.
		{KindCrossGVMI, full, KindCrossGVMI},
		{KindStaged, full, KindStaged},
		{KindHostDirect, full, KindHostDirect},
		{KindDSA, both, KindDSA},
		// No cross-GVMI: gvmi degrades to the DSA engine when one exists,
		// else to staged copies.
		{KindCrossGVMI, noGVMI, KindStaged},
		{KindCrossGVMI, noGVMIDSA, KindDSA},
		// No DSA engine: dsa degrades to gvmi when legal, else staged.
		{KindDSA, noDSA, KindCrossGVMI},
		{KindDSA, noGVMI, KindStaged},
		// Staged and hostdirect need no device capability.
		{KindStaged, noGVMI, KindStaged},
		{KindHostDirect, noGVMI, KindHostDirect},
	}
	for _, c := range cases {
		if got := Resolve(c.k, c.c); got != c.want {
			t.Errorf("Resolve(%v, %+v) = %v, want %v", c.k, c.c, got, c.want)
		}
	}
	// Determinism: resolving twice (a resolved kind is already legal) is
	// a fixed point, so retrying a decision never flips the path.
	for _, k := range []Kind{KindCrossGVMI, KindStaged, KindHostDirect, KindDSA} {
		for _, caps := range []Caps{full, noGVMI, noGVMIDSA, noDSA, both} {
			once := Resolve(k, caps)
			if twice := Resolve(once, caps); twice != once {
				t.Errorf("Resolve not idempotent: %v under %+v -> %v -> %v", k, caps, once, twice)
			}
		}
	}
}

func TestHostDirectExecutePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("HostDirect.Execute did not panic")
		}
	}()
	HostDirect{}.Execute(nil, Transfer{}, nil)
}
