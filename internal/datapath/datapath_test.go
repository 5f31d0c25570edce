package datapath

import (
	"testing"

	"repro/internal/gvmi"
	"repro/internal/sim"
	"repro/internal/span"
	"repro/internal/verbs"
)

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

// stageExec is an Exec that posts nothing: it keeps the last read and write
// and the queued steps for the test to fire, and leases one staging buffer.
type stageExec struct {
	stage          Stage
	leased         bool
	releases       int
	read           verbs.ReadOp
	write          verbs.WriteOp
	later          []sim.Action
	counts         [4]int // writes, reads, staged, engine
	queuedAtLanded int
}

func (x *stageExec) PostWrite(op verbs.WriteOp) error { x.write = op; return nil }
func (x *stageExec) PostRead(op verbs.ReadOp) error   { x.read = op; return nil }
func (x *stageExec) PostEngineWrite(verbs.WriteOp) error {
	panic("no engine")
}
func (x *stageExec) CrossReg(int, gvmi.MKeyInfo, span.ID) *verbs.MR { panic("no cross-registration") }
func (x *stageExec) AcquireStage(size int, _ span.ID) *Stage {
	if x.leased || size > x.stage.Cap {
		panic("stage already leased, or too small")
	}
	x.leased = true
	return &x.stage
}
func (x *stageExec) ReleaseStage(s *Stage) {
	if !x.leased || s != &x.stage {
		panic("released a stage that is not leased")
	}
	x.leased = false
	x.releases++
}
func (x *stageExec) Later(a sim.Action) { x.later = append(x.later, a) }
func (x *stageExec) CountWrite()        { x.counts[0]++ }
func (x *stageExec) CountRead()         { x.counts[1]++ }
func (x *stageExec) CountStaged()       { x.counts[2]++ }
func (x *stageExec) CountEngine()       { x.counts[3]++ }

// runLater runs the one queued step.
func (x *stageExec) runLater(t *testing.T) {
	t.Helper()
	if len(x.later) != 1 {
		t.Fatalf("%d steps queued, want 1", len(x.later))
	}
	a := x.later[0]
	x.later = x.later[:0]
	a.Fire(0)
}

// A staged transfer rides its staging lease: the read lands in the stage,
// its completion queues the write, and the write's queues the lease's
// return before reporting the landing. The lease comes back once, holding
// nothing of the transfer, and a warm transfer allocates nothing.
func TestStagedRidesItsLeaseAllocFree(t *testing.T) {
	x := &stageExec{stage: Stage{LKey: 7, Addr: 0x1000, Cap: 4096}, later: make([]sim.Action, 0, 1)}
	landings := 0
	landed := sim.Func(func(at sim.Time) {
		landings++
		x.queuedAtLanded = len(x.later)
	})
	tr := Transfer{Size: 4000, SrcAddr: 0x9000, SrcRKey: 3, DstAddr: 0x5000, DstRKey: 5, Span: 11}
	transfer := func() {
		x.read, x.write = verbs.ReadOp{}, verbs.WriteOp{}
		Staged{}.Execute(x, tr, landed)
		x.read.OnComplete.Fire(1)
		x.runLater(t)
		x.write.OnRemoteComplete.Fire(2)
		x.runLater(t)
	}

	transfer()
	r, w := x.read, x.write
	if r.LocalKey != 7 || r.LocalAddr != 0x1000 || r.RemoteKey != 3 || r.RemoteAddr != 0x9000 || r.Size != 4000 || r.Span != 11 {
		t.Errorf("read %+v, want the source into the stage", r)
	}
	if w.LocalKey != 7 || w.LocalAddr != 0x1000 || w.RemoteKey != 5 || w.RemoteAddr != 0x5000 || w.Size != 4000 || w.Span != 11 {
		t.Errorf("write %+v, want the stage to the destination", w)
	}
	if landings != 1 || x.queuedAtLanded != 1 || x.releases != 1 || x.leased {
		t.Fatalf("%d landings (with %d steps queued), %d releases, leased %v: want the release queued before one landing, then one release",
			landings, x.queuedAtLanded, x.releases, x.leased)
	}
	if x.counts != [4]int{1, 1, 1, 0} {
		t.Errorf("counts (writes, reads, staged, engine) = %v, want one each of the first three", x.counts)
	}
	if s := &x.stage; s.x != nil || s.landed != nil {
		t.Error("the returned lease still holds its transfer")
	}
	if a := testing.AllocsPerRun(100, transfer); a != 0 {
		t.Fatalf("a warm staged transfer allocates %.1f objects, want 0", a)
	}
}
