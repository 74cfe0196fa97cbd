package harness

import (
	"encoding/json"
	"flag"
	"os"
	"sync"
	"testing"

	"mobic/internal/cluster"
	"mobic/internal/scenario"
	"mobic/internal/simnet"
)

var update = flag.Bool("update", false, "rewrite the pinned digest files")

const (
	goldenPath = "testdata/digests.json"
	// enginePathsPath pins the engine paths the golden grid never reaches.
	// It is a separate file because the service's spec-digest version
	// binding hashes digests.json byte for byte.
	enginePathsPath = "testdata/engine_paths.json"
)

// goldenConfigs returns every pinned (workload, algorithm, seed) cell keyed
// by GoldenKey.
func goldenConfigs(t *testing.T) map[string]simnet.Config {
	t.Helper()
	out := make(map[string]simnet.Config)
	for _, r := range GoldenRuns() {
		for _, seed := range GoldenSeeds() {
			cfg, err := r.Workload.Config(r.Algorithm, seed)
			if err != nil {
				t.Fatal(err)
			}
			out[GoldenKey(r.Workload.Name, r.Algorithm.Name, seed)] = cfg
		}
	}
	return out
}

// enginePathConfigs returns the MOBIC runs pinned beside the golden grid,
// each the Table 1 base scenario at every golden seed with one engine path
// switched on: aggregate EWMA history, per-link EWMA history, or the MAC
// collision model together with a crash-and-recover and a permanent crash.
func enginePathConfigs(t *testing.T) map[string]simnet.Config {
	t.Helper()
	paths := map[string]struct {
		tx     float64
		mutate func(*simnet.Config)
	}{
		"ewma-tx100":          {100, func(c *simnet.Config) { c.Algorithm.EWMAAlpha = 0.5 }},
		"pairwise-ewma-tx250": {250, func(c *simnet.Config) { c.Algorithm.PairwiseEWMAAlpha = 0.5 }},
		"collisions-failures-tx150": {150, func(c *simnet.Config) {
			c.HelloCollisions = true
			c.Failures = []simnet.NodeFailure{{Node: 3, At: 40, RecoverAt: 90}, {Node: 7, At: 120}}
		}},
	}
	out := make(map[string]simnet.Config)
	for name, path := range paths {
		for _, seed := range GoldenSeeds() {
			p := scenario.Base(path.tx)
			p.Duration, p.Seed = PinnedDuration, seed
			cfg, err := p.Config(cluster.MOBIC)
			if err != nil {
				t.Fatal(err)
			}
			path.mutate(&cfg)
			out[GoldenKey(name, cluster.MOBIC.Name, seed)] = cfg
		}
	}
	return out
}

// digestAll runs every config and returns its digest under the same key.
// Runs execute in parallel — each is an independent single-threaded
// simulation.
func digestAll(t *testing.T, configs map[string]simnet.Config) map[string]Digest {
	t.Helper()
	var (
		mu  sync.Mutex
		wg  sync.WaitGroup
		out = make(map[string]Digest)
	)
	for key, cfg := range configs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dig, _, err := DigestRun(cfg)
			if err != nil {
				t.Errorf("%s: %v", key, err)
				return
			}
			mu.Lock()
			out[key] = dig
			mu.Unlock()
		}()
	}
	wg.Wait()
	return out
}

// checkPinned compares got with the JSON file at path entry by entry, or
// rewrites the file under -update. check reports how one pinned entry
// differs from its run.
func checkPinned[V any](t *testing.T, path string, got map[string]V, check func(key string, want, got V)) {
	t.Helper()
	if t.Failed() {
		return
	}
	if *update {
		// encoding/json writes map keys sorted, so the file diffs cleanly.
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d entries", path, len(got))
		return
	}
	// The key sets must match both ways: a run added to or dropped from
	// the pinned list must come with, or take away, its entry.
	want := loadPinned[V](t, path)
	for key, g := range got {
		if w, ok := want[key]; !ok {
			t.Errorf("%s: pinned but not in %s (refresh with -update)", key, path)
		} else {
			check(key, w, g)
		}
	}
	for key := range want {
		if _, ok := got[key]; !ok {
			t.Errorf("%s: in %s but no longer pinned", key, path)
		}
	}
}

// checkDigests pins the digest of every run in configs to the file at path.
func checkDigests(t *testing.T, path string, configs map[string]simnet.Config) {
	t.Helper()
	checkPinned(t, path, digestAll(t, configs), func(key string, w, g Digest) {
		if g != w {
			t.Errorf("%s: digest drifted\n  golden: %s (%d events)\n  got:    %s (%d events)",
				key, w.SHA256, w.Events, g.SHA256, g.Events)
		}
	})
}

// TestGoldenDigests is the cross-run determinism anchor: the digest of every
// pinned workload must match the committed golden file byte for byte. An
// intentional behaviour change refreshes the file with
//
//	go test ./internal/harness -run TestGoldenDigests -update
//
// and the diff of testdata/digests.json documents exactly which (workload,
// algorithm, seed) cells moved. The file's keys must be exactly
// GoldenRuns() × GoldenSeeds().
func TestGoldenDigests(t *testing.T) {
	checkDigests(t, goldenPath, goldenConfigs(t))
}

// TestEnginePathDigests pins the engine paths no golden run sets (history
// smoothing, MAC collisions, crashes) the same way, in their own file.
func TestEnginePathDigests(t *testing.T) {
	checkDigests(t, enginePathsPath, enginePathConfigs(t))
}

// loadPinned reads a committed file of pinned entries.
func loadPinned[V any](t *testing.T, path string) map[string]V {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading %s (refresh with -update): %v", path, err)
	}
	var want map[string]V
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parsing %s: %v", path, err)
	}
	return want
}
