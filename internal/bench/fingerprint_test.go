package bench

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"specguard/internal/core"
	"specguard/internal/prog"
)

// TestFingerprintGolden pins Program.Fingerprint, which store keys,
// program-cache keys and the fuzz parameters derived from fingerprints
// all depend on. For every kernel's base program, its rewrite under
// its default options and under each ablation configuration, and
// every leak workload's base program and default rewrite, the digest
// must be FNV-64a over Entry, a NUL byte and String() — the definition
// the streamed hash keeps — and equal the golden value. Regenerate
// with `go test ./internal/bench -run TestFingerprintGolden -update`.
func TestFingerprintGolden(t *testing.T) {
	r := NewRunner()
	got := make(map[string]string)
	record := func(name string, p *prog.Program) {
		h := fnv.New64a()
		h.Write([]byte(p.Entry))
		h.Write([]byte{0})
		h.Write([]byte(p.String()))
		fp := p.Fingerprint()
		if want := h.Sum64(); fp != want {
			t.Errorf("%s: Fingerprint() = %016x, FNV-64a of the printed program = %016x", name, fp, want)
		}
		got[name] = fmt.Sprintf("%016x", fp)
	}
	for _, w := range append(All(), LeakWorkloads()...) {
		record(w.Name+"/base", w.Build())
		opts := []core.Options{w.Opt}
		if _, err := ByName(w.Name); err == nil {
			opts = append(opts, ablationRows...)
		}
		prof, err := r.ProfileOf(w)
		if err != nil {
			t.Fatal(err)
		}
		for i, o := range opts {
			p := w.Build()
			if _, err := core.Optimize(p, prof, r.Model, o); err != nil {
				t.Fatalf("%s opts %d: %v", w.Name, i, err)
			}
			name := w.Name + "/default"
			if i > 0 {
				name = fmt.Sprintf("%s/ablation%d", w.Name, i-1)
			}
			record(name, p)
		}
	}

	path := filepath.Join("testdata", "fingerprints.json")
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden holds %d programs, the test fingerprints %d", len(want), len(got))
	}
	for name, fp := range got {
		if want[name] != fp {
			t.Errorf("%s: fingerprint %s, golden %s", name, fp, want[name])
		}
	}
}

// TestWorkloadRegistryAllocations: the registry is built once, so
// ByName (called on every sgserved request) allocates nothing and All
// copies one slice that its caller may change freely.
func TestWorkloadRegistryAllocations(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() {
		if _, err := ByName("grep"); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("ByName allocates %v objects per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = All() }); n != 1 {
		t.Errorf("All allocates %v objects per call, want 1", n)
	}
	ws := All()
	ws[0] = Workload{Name: "changed"}
	if All()[0].Name != "compress" {
		t.Error("changing All's slice changed the registry")
	}
}
