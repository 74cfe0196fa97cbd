package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"

	"mobic/internal/cluster"
)

// specDigestVersion heads the hashed payload; bump it whenever the
// canonical form changes, so old cache entries can never be served for a
// semantically different spec. v2 added the Tiles field (tiled-parallel
// scheduler knob); v3 added the clustering-policy scenario fields (bi_min,
// bi_max, energy_j): every v1/v2 cache entry misses cleanly under v3 keys.
const specDigestVersion = "mobicspec3\n"

// canonicalSpec is the normalized image of a JobSpec that Digest hashes.
// It is a distinct struct — not JobSpec itself — so the wire format of
// submissions can evolve without silently invalidating (or worse,
// colliding) cache keys, and so every defaultable field is pinned to its
// materialized value. Field names are part of the digest contract; the
// golden file in testdata/spec_digests.json guards them.
type canonicalSpec struct {
	V          int     `json:"v"`
	Experiment string  `json:"experiment,omitempty"`
	Seeds      int     `json:"seeds"`
	BaseSeed   uint64  `json:"base_seed"`
	Duration   float64 `json:"duration"`
	IncludeRaw bool    `json:"include_raw"`
	Tiles      int     `json:"tiles"`

	Sweep *canonicalSweep `json:"sweep,omitempty"`
}

// canonicalSweep is the sweep half of the canonical form: the scenario is
// fully materialized over the paper's Table 1 defaults, algorithm names are
// resolved to their canonical spelling, and an empty sweep axis becomes the
// explicit single cell it stands for.
type canonicalSweep struct {
	N          int       `json:"n"`
	Side       float64   `json:"side"`
	MaxSpeed   float64   `json:"max_speed"`
	Pause      float64   `json:"pause"`
	TxRange    float64   `json:"tx_range"`
	BI         float64   `json:"bi"`
	TP         float64   `json:"tp"`
	CCI        float64   `json:"cci"`
	Duration   float64   `json:"scenario_duration"`
	Warmup     float64   `json:"warmup"`
	BIMin      float64   `json:"bi_min"`
	BIMax      float64   `json:"bi_max"`
	EnergyJ    float64   `json:"energy_j"`
	Algorithms []string  `json:"algorithms"`
	TxRanges   []float64 `json:"tx_ranges"`
}

// canonical builds the normalized image Digest hashes. Normalizations, in
// the order they matter:
//
//   - scenario fields are default-filled via scenario.Base, so a spec that
//     spells out the Table 1 defaults digests identically to one that
//     leaves them zero;
//   - algorithm names resolve through cluster.ByName to their canonical
//     Name (aliases collapse);
//   - an empty TxRanges axis becomes the explicit one-cell axis at the
//     scenario's own transmission range;
//   - BaseSeed 0 becomes the runner default 1.
//
// Tiles is hashed as-is even though the engine ignores it: dropping it from
// the canonical form would move every cache key that ever carried it.
//
// Two fields are deliberately treated asymmetrically: Seeds 0 is kept as
// the "service default" sentinel (its resolution lives in daemon config, so
// digest identity across a cluster assumes peers share -seeds — see
// DESIGN.md S28), and TimeoutSeconds is excluded entirely, because a
// wall-clock budget changes whether a result is produced, never which one.
func (s JobSpec) canonical() canonicalSpec {
	c := canonicalSpec{
		V:          3,
		Experiment: s.Experiment,
		Seeds:      s.Seeds,
		BaseSeed:   s.BaseSeed,
		Duration:   s.Duration,
		IncludeRaw: s.IncludeRaw,
		Tiles:      s.Tiles,
	}
	if c.BaseSeed == 0 {
		c.BaseSeed = 1
	}
	if s.Sweep == nil {
		return c
	}
	p := s.Sweep.Scenario.params()
	cs := &canonicalSweep{
		N:        p.N,
		Side:     p.Side,
		MaxSpeed: p.MaxSpeed,
		Pause:    p.Pause,
		TxRange:  p.TxRange,
		BI:       p.BI,
		TP:       p.TP,
		CCI:      p.CCI,
		Duration: p.Duration,
		Warmup:   p.Warmup,
		BIMin:    p.BIMin,
		BIMax:    p.BIMax,
		EnergyJ:  p.EnergyJ,
	}
	cs.Algorithms = make([]string, len(s.Sweep.Algorithms))
	for i, name := range s.Sweep.Algorithms {
		if alg, err := cluster.ByName(name); err == nil {
			cs.Algorithms[i] = alg.Name
		} else {
			// Unknown names never pass Validate; hashing them raw keeps
			// Digest total for invalid specs.
			cs.Algorithms[i] = name
		}
	}
	cs.TxRanges = s.Sweep.TxRanges
	if len(cs.TxRanges) == 0 {
		cs.TxRanges = []float64{p.TxRange}
	}
	c.Sweep = cs
	return c
}

// Digest returns the canonical SHA-256 content address of the spec as 64
// hex characters. Semantically equal specs — same simulation cells, same
// output shape — digest identically regardless of how they were spelled:
// defaulted versus explicit scenario fields, an omitted versus explicit
// sweep axis, algorithm aliases, JSON field order. It is the key of the
// content-addressed result cache and the coordinator's placement key, so
// identical resubmitted sweeps collapse onto one worker and one cached
// result.
func (s JobSpec) Digest() string {
	payload, err := json.Marshal(s.canonical())
	if err != nil {
		// canonicalSpec is plain data; Marshal cannot fail on it.
		panic("service: canonical spec marshal: " + err.Error())
	}
	h := sha256.New()
	h.Write([]byte(specDigestVersion))
	h.Write(payload)
	return hex.EncodeToString(h.Sum(nil))
}
