// Package bench assembles benchmark environments (cluster + MPI world +
// whatever offload framework and policy engine a bundle asks for) and
// implements the OMB-style measurement loops used to regenerate every
// figure of the paper's evaluation.
package bench

import (
	"repro/internal/baseline"
	"repro/internal/coll"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// Options describe one benchmark environment: one world over every rank.
type Options = baseline.Spec

// Env is a ready-to-launch benchmark environment.
type Env struct{ *baseline.System }

// Build constructs the environment of the bundle Options.Scheme names
// (baseline.Build); it panics on a spec it cannot build.
func Build(opt Options) *Env {
	sys, err := baseline.Build(opt)
	if err != nil {
		panic("bench: " + err.Error())
	}
	return &Env{sys}
}

// Launch spawns all ranks running fn with the bundle's collective and
// point-to-point backends bound (coll.Bind), then runs the simulation to
// completion and retires the environment, so that sweeps building many in
// one process can collect each. It returns the final virtual time and
// panics on deadlock (a bug).
func (e *Env) Launch(fn func(r *mpi.Rank, ops coll.Ops, p2p coll.P2P)) sim.Time {
	e.Worlds[0].Launch(func(r *mpi.Rank) {
		ops, p2p := coll.Bind(e.Spec.Scheme, r, e.Host(0, r), e.Engines[0])
		fn(r, ops, p2p)
	})
	end, err := e.Run()
	if err != nil {
		panic("bench: " + err.Error())
	}
	return end
}
