package service

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// updateGolden regenerates testdata/spec_digests.json from the current
// canonicalization: go test ./internal/service -run TestSpecDigestGolden -update
var updateGolden = flag.Bool("update", false, "rewrite golden files")

var hexDigest = regexp.MustCompile(`^[0-9a-f]{64}$`)

// mustSpec decodes a JSON spec, failing the test on error.
func mustSpec(t *testing.T, src string) JobSpec {
	t.Helper()
	var spec JobSpec
	dec := json.NewDecoder(strings.NewReader(src))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatalf("decoding %s: %v", src, err)
	}
	return spec
}

// goldenEntry is one pinned digest in testdata/spec_digests.json.
type goldenEntry struct {
	Name   string          `json:"name"`
	Spec   json.RawMessage `json:"spec"`
	Digest string          `json:"digest"`
}

// goldenSpecs is the pinned corpus. The digests in the golden file are part
// of the cache and placement contract: a change that shifts any of them
// must bump specDigestVersion (old cache entries become unreachable, which
// is the safe failure) and is an API-visible event, not a refactor.
var goldenSpecs = []struct{ name, spec string }{
	{"experiment-fig3", `{"experiment":"fig3"}`},
	{"experiment-fig3-seeds", `{"experiment":"fig3","seeds":5,"base_seed":7}`},
	{"sweep-defaults", `{"sweep":{"scenario":{},"algorithms":["mobic"]}}`},
	{"sweep-explicit-table1", `{"sweep":{"scenario":{"n":50,"side":670,"max_speed":20,"tx_range":150,"bi":2,"tp":3,"cci":4,"duration":900},"algorithms":["mobic"]}}`},
	{"sweep-two-algorithms", `{"sweep":{"scenario":{"n":50},"algorithms":["mobic","lowest-id"],"tx_ranges":[50,100,150]},"seeds":3}`},
	{"sweep-include-raw", `{"sweep":{"scenario":{"n":50},"algorithms":["lcc"]},"include_raw":true,"duration":120}`},
	{"experiment-fig3-tiled", `{"experiment":"fig3","tiles":8}`},
	{"sweep-policies", `{"sweep":{"scenario":{"bi_min":0.5,"bi_max":4,"energy_j":12},"algorithms":["adaptive-lowest-id","mobic"]}}`},
	{"experiment-flooding-duration", `{"experiment":"flooding","duration":300}`},
}

func TestSpecDigestGolden(t *testing.T) {
	path := filepath.Join("testdata", "spec_digests.json")
	if *updateGolden {
		var entries []goldenEntry
		for _, g := range goldenSpecs {
			spec := mustSpec(t, g.spec)
			entries = append(entries, goldenEntry{Name: g.name, Spec: json.RawMessage(g.spec), Digest: spec.Digest()})
		}
		data, err := json.MarshalIndent(entries, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update): %v", err)
	}
	var entries []goldenEntry
	if err := json.Unmarshal(data, &entries); err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(goldenSpecs) {
		t.Fatalf("golden file has %d entries, corpus has %d (regenerate with -update)", len(entries), len(goldenSpecs))
	}
	for i, g := range goldenSpecs {
		spec := mustSpec(t, g.spec)
		got := spec.Digest()
		if !hexDigest.MatchString(got) {
			t.Fatalf("%s: digest %q is not 64 hex chars", g.name, got)
		}
		if entries[i].Name != g.name {
			t.Fatalf("golden entry %d is %q, corpus says %q (regenerate with -update)", i, entries[i].Name, g.name)
		}
		if got != entries[i].Digest {
			t.Errorf("%s: digest changed\n  got  %s\n  want %s\nThe canonical form moved: bump specDigestVersion and regenerate with -update.",
				g.name, got, entries[i].Digest)
		}
	}
}

// TestSpecDigestVersionMiss pins the cache-migration behavior of the digest
// version bumps (mobicspec1 -> 2 added Tiles; 2 -> 3 added the clustering
// policy fields; 3 -> 4 moved flooding's and failures' output under a
// duration override): the digests the old canonicalizations produced — frozen
// here from their golden files — must never come out of the current Digest,
// so every stale cache entry misses cleanly instead of being served for (or
// colliding with) a current spec.
func TestSpecDigestVersionMiss(t *testing.T) {
	old := []struct{ spec, digest string }{
		// mobicspec1
		{`{"experiment":"fig3"}`, "93537cc3133e2072b37fd0416bd73c7b819b5edd56fffbf74d7db284e5226e40"},
		{`{"experiment":"fig3","seeds":5,"base_seed":7}`, "552fe14783939e8e3d95b00ec98d0d3140aa9f0aef009446dce3a5674765e595"},
		{`{"sweep":{"scenario":{},"algorithms":["mobic"]}}`, "6b1c1628b66985b2c52112f5ee36afec9f76690efcb2adef8ffaaf86981ef870"},
		{`{"sweep":{"scenario":{"n":50},"algorithms":["mobic","lowest-id"],"tx_ranges":[50,100,150]},"seeds":3}`, "f23a729a632304ff1b827963ad3beca653cf23236a645151bf2b63f2096da8be"},
		{`{"sweep":{"scenario":{"n":50},"algorithms":["lcc"]},"include_raw":true,"duration":120}`, "d2662e04887415b345b277e74b98469fd43123cb42e4b7e51d46277f72c754ac"},
		// mobicspec2
		{`{"experiment":"fig3"}`, "fe411e4c7bc95078ab455b7dda859b755030a2819c531813c1ace07fa0ab809d"},
		{`{"experiment":"fig3","seeds":5,"base_seed":7}`, "8f6b0ec67e5c95a6927edb21552d553cef066c90d707ecd1c0ab841c8486a9f2"},
		{`{"sweep":{"scenario":{},"algorithms":["mobic"]}}`, "aaef1dd4bbf5987ae849551c3e1440eee8cfb0d3b00c3805603f669de3084fe6"},
		{`{"sweep":{"scenario":{"n":50},"algorithms":["mobic","lowest-id"],"tx_ranges":[50,100,150]},"seeds":3}`, "5f30ef95f915d185bf96264fee292b882a7b3c8e004e735bdfbae7318e42fb37"},
		{`{"sweep":{"scenario":{"n":50},"algorithms":["lcc"]},"include_raw":true,"duration":120}`, "17ed57bedda0c4abd078a24d0024499628b54982f0e9ef51216fe5732da32367"},
		{`{"experiment":"fig3","tiles":8}`, "0fae8080218c4d0edf5f6863d359255df1c2f27fc177dc52725a369192a3218a"},
		// mobicspec3
		{`{"experiment":"fig3"}`, "a9c913b0ad113d38cbd6267057bf8451d260b1df3e1cf1d514b71ad847f77aac"},
		{`{"experiment":"fig3","seeds":5,"base_seed":7}`, "6085d37ac506fc9ad3ee8f9266d153619a2bff39c439adc3e6c061565eb38d04"},
		{`{"sweep":{"scenario":{},"algorithms":["mobic"]}}`, "bc16fa75d0535fe65d353bc8e39cc44c35ce0188714ec1a11a31475bcbc007e2"},
		{`{"sweep":{"scenario":{"n":50},"algorithms":["mobic","lowest-id"],"tx_ranges":[50,100,150]},"seeds":3}`, "9dd4f578374826a47bc11eb286d8a4908a842569e4b074dd2e12aada6f10e1c2"},
		{`{"sweep":{"scenario":{"n":50},"algorithms":["lcc"]},"include_raw":true,"duration":120}`, "8caa97d6d5adea35e1d2594667fdd4a78675d9fd5fe2f73f7a869ce711b4f0c7"},
		{`{"experiment":"fig3","tiles":8}`, "74d63067e0205cd87596f6a1b306d295e3d3ae80ade078e3dcdd782eb13d15f1"},
		{`{"sweep":{"scenario":{"bi_min":0.5,"bi_max":4,"energy_j":12},"algorithms":["adaptive-lowest-id","mobic"]}}`, "930c28da567f839d567bcb47cae40f8435eb4b5913e5afccaf44e61785b1b15d"},
		{`{"experiment":"flooding","duration":300}`, "41f8a4cb3331ee6eb880506bdcc08b81f9d0079481885a8700a00a1c9d826af9"},
	}
	for _, c := range old {
		if got := mustSpec(t, c.spec).Digest(); got == c.digest {
			t.Errorf("spec %s still digests to its stale value %s; old cache entries would be served", c.spec, c.digest)
		}
	}
}

// TestSpecDigestSpellingInvariance pins the normalizations: every pair
// below spells the same simulation differently and must collapse to one
// digest.
func TestSpecDigestSpellingInvariance(t *testing.T) {
	pairs := []struct{ name, a, b string }{
		{
			"defaults-vs-explicit-table1",
			`{"sweep":{"scenario":{},"algorithms":["mobic"]}}`,
			`{"sweep":{"scenario":{"n":50,"side":670,"max_speed":20,"tx_range":150,"bi":2,"tp":3,"cci":4,"duration":900},"algorithms":["mobic"]}}`,
		},
		{
			"omitted-vs-explicit-axis",
			`{"sweep":{"scenario":{"tx_range":120},"algorithms":["mobic"]}}`,
			`{"sweep":{"scenario":{"tx_range":120},"algorithms":["mobic"],"tx_ranges":[120]}}`,
		},
		{
			"base-seed-zero-vs-default",
			`{"experiment":"fig3"}`,
			`{"experiment":"fig3","base_seed":1}`,
		},
		{
			"timeout-excluded",
			`{"experiment":"fig3"}`,
			`{"experiment":"fig3","timeout_seconds":30}`,
		},
		{
			"json-field-order",
			`{"seeds":4,"sweep":{"algorithms":["lcc"],"scenario":{"n":40,"side":200}}}`,
			`{"sweep":{"scenario":{"side":200,"n":40},"algorithms":["lcc"]},"seeds":4}`,
		},
	}
	for _, p := range pairs {
		t.Run(p.name, func(t *testing.T) {
			da, db := mustSpec(t, p.a).Digest(), mustSpec(t, p.b).Digest()
			if da != db {
				t.Errorf("digests differ:\n  %s -> %s\n  %s -> %s", p.a, da, p.b, db)
			}
		})
	}
}

// TestSpecDigestSensitivity pins the other direction: semantically distinct
// specs must not collide.
func TestSpecDigestSensitivity(t *testing.T) {
	base := `{"sweep":{"scenario":{"n":30},"algorithms":["mobic"],"tx_ranges":[100,150]},"seeds":3}`
	variants := []struct{ name, spec string }{
		{"different-n", `{"sweep":{"scenario":{"n":31},"algorithms":["mobic"],"tx_ranges":[100,150]},"seeds":3}`},
		{"different-algorithm", `{"sweep":{"scenario":{"n":30},"algorithms":["lcc"],"tx_ranges":[100,150]},"seeds":3}`},
		{"algorithm-order", `{"sweep":{"scenario":{"n":30},"algorithms":["mobic","lcc"],"tx_ranges":[100,150]},"seeds":3}`},
		{"different-axis", `{"sweep":{"scenario":{"n":30},"algorithms":["mobic"],"tx_ranges":[150,100]},"seeds":3}`},
		{"different-seeds", `{"sweep":{"scenario":{"n":30},"algorithms":["mobic"],"tx_ranges":[100,150]},"seeds":4}`},
		{"include-raw", `{"sweep":{"scenario":{"n":30},"algorithms":["mobic"],"tx_ranges":[100,150]},"seeds":3,"include_raw":true}`},
		{"duration-override", `{"sweep":{"scenario":{"n":30},"algorithms":["mobic"],"tx_ranges":[100,150]},"seeds":3,"duration":60}`},
		{"tiles-override", `{"sweep":{"scenario":{"n":30},"algorithms":["mobic"],"tx_ranges":[100,150]},"seeds":3,"tiles":4}`},
		{"experiment-not-sweep", `{"experiment":"fig3"}`},
	}
	seen := map[string]string{mustSpec(t, base).Digest(): "base"}
	for _, v := range variants {
		d := mustSpec(t, v.spec).Digest()
		if prev, dup := seen[d]; dup {
			t.Errorf("%s collides with %s: %s", v.name, prev, d)
		}
		seen[d] = v.name
	}
}

// FuzzSpecDigest hunts for canonicalization bugs: any decodable spec must
// digest deterministically, a JSON re-encode round-trip must not move the
// digest (spelling insensitivity), and explicitly filling a valid spec's
// defaults must not either (default-fill insensitivity).
func FuzzSpecDigest(f *testing.F) {
	for _, g := range goldenSpecs {
		f.Add(g.spec)
	}
	f.Add(`{"sweep":{"scenario":{"n":1000,"warmup":0.5},"algorithms":["mobic-nocci","dca"],"tx_ranges":[1e-9]}}`)
	f.Add(`{"experiment":"fig3","seeds":32,"base_seed":18446744073709551615,"duration":3600}`)
	f.Fuzz(func(t *testing.T, src string) {
		var spec JobSpec
		if err := json.Unmarshal([]byte(src), &spec); err != nil {
			t.Skip()
		}
		d1 := spec.Digest()
		if !hexDigest.MatchString(d1) {
			t.Fatalf("digest %q is not 64 hex chars", d1)
		}
		if d2 := spec.Digest(); d2 != d1 {
			t.Fatalf("digest not deterministic: %s then %s", d1, d2)
		}

		// Round-trip through encoding/json: a client re-serializing the spec
		// must land on the same content address.
		enc, err := json.Marshal(spec)
		if err != nil {
			t.Skip()
		}
		var back JobSpec
		if err := json.Unmarshal(enc, &back); err != nil {
			t.Fatalf("re-decoding own encoding: %v", err)
		}
		if d3 := back.Digest(); d3 != d1 {
			t.Fatalf("round-trip moved the digest: %s -> %s (spec %s)", d1, d3, enc)
		}

		if spec.Validate() != nil {
			return
		}
		// Default-fill: spell every defaultable field explicitly.
		filled := spec
		if filled.BaseSeed == 0 {
			filled.BaseSeed = 1
		}
		filled.TimeoutSeconds = spec.TimeoutSeconds + 17
		if spec.Sweep != nil {
			sw := *spec.Sweep
			p := sw.Scenario.params()
			sw.Scenario = ScenarioSpec{
				N: p.N, Side: p.Side, MaxSpeed: p.MaxSpeed, Pause: p.Pause,
				TxRange: p.TxRange, BI: p.BI, TP: p.TP, CCI: p.CCI,
				Duration: p.Duration, Warmup: p.Warmup,
				BIMin: p.BIMin, BIMax: p.BIMax, EnergyJ: p.EnergyJ,
			}
			if len(sw.TxRanges) == 0 {
				sw.TxRanges = []float64{p.TxRange}
			}
			filled.Sweep = &sw
		}
		if d4 := filled.Digest(); d4 != d1 {
			t.Fatalf("default-fill moved the digest: %s -> %s", d1, d4)
		}
	})
}
