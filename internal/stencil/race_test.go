//go:build race

package stencil

// raceEnabled reports a -race build (see TestStencilIterationAllocFree).
const raceEnabled = true
