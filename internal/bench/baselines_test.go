package bench

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// repoRoot is where the checked-in BENCH_*.json files live, relative to
// this package's test working directory.
const repoRoot = "../.."

// Every pinned baseline must pass its own Check (schema plus headline
// claims, on the stored bytes — so the JSON round trip is part of it), and
// every row that is cheap to measure must regenerate to exactly the
// checked-in bytes at any sweep worker count: results land by index and
// per-run registries merge in index order, so serial and parallel runs
// cannot differ, and a file that no longer regenerates is stale. Regenerate
// with `make snap-NAME` after an intentional change.
func TestBaselines(t *testing.T) {
	// The fleet row looks its fig13 sibling up next to the file it checks,
	// not in the working directory. The subtest changes the process's
	// working directory, so it runs first and serially: t.Parallel below
	// holds the rest of TestBaselines, and every other parallel test, until
	// the sequential tests are done.
	t.Run("fleet outside the repo", func(t *testing.T) {
		dir := t.TempDir()
		for _, name := range []string{"BENCH_fig13.json", "BENCH_fleet.json"} {
			data, err := os.ReadFile(filepath.Join(repoRoot, name))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		cwd, err := os.Getwd()
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Chdir(t.TempDir()); err != nil {
			t.Fatal(err)
		}
		defer os.Chdir(cwd)
		fleet, _ := FindBaseline("fleet")
		if _, err := fleet.CheckFile(filepath.Join(dir, "BENCH_fleet.json")); err != nil {
			t.Fatal(err)
		}
	})

	t.Parallel()
	for _, b := range Baselines {
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			checked, err := os.ReadFile(filepath.Join(repoRoot, b.File))
			if err != nil {
				t.Fatalf("missing baseline (run `make snap-%s`): %v", b.Name, err)
			}
			if _, err := b.Check(checked, repoRoot); err != nil {
				t.Fatal(err)
			}
			if b.Slow {
				return
			}
			for _, workers := range []int{1, 4} {
				t.Run(fmt.Sprintf("parallel_%d", workers), func(t *testing.T) {
					t.Parallel()
					fresh, err := encode(b.Measure(SweepEnv{Parallel: workers}))
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(fresh, checked) {
						t.Fatalf("%s is stale: Measure at -parallel %d no longer reproduces it (run `make snap-%s`)",
							b.File, workers, b.Name)
					}
				})
			}
		})
	}
}
