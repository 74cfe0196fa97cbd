package experiment

import (
	"context"
	"testing"

	"mobic/internal/simnet"
)

// pinnedRuns lists the experiments whose Result JSON is pinned byte for
// byte in testdata/pin_<id>.json. Routes, hierarchy and timeline run 300 s,
// long enough for several probe epochs or windows (at 60 s routes takes no
// sample at all). Failures runs at 900 s, where its crash lands at t = 300 s.
// Flooding runs one full-length seed with no Mutate.
// Re-pin only for an intended output change:
//
//	go test ./internal/experiment -run TestExperimentPins -update
func pinnedRuns() []struct {
	id string
	r  Runner
} {
	trimmed := func(duration float64) Runner {
		return Runner{Seeds: 2, BaseSeed: 1, Mutate: func(cfg *simnet.Config) {
			cfg.N = 15
			cfg.Duration = duration
		}}
	}
	return []struct {
		id string
		r  Runner
	}{
		{"cbrp", fastRunner(2)},
		{"routes", trimmed(300)},
		{"hierarchy", trimmed(300)},
		{"timeline", trimmed(300)},
		{"convergence", fastRunner(2)},
		{"failures", trimmed(900)},
		{"flooding", Runner{Seeds: 1}},
	}
}

func TestExperimentPins(t *testing.T) {
	for _, tc := range pinnedRuns() {
		t.Run(tc.id, func(t *testing.T) {
			d, err := ByID(tc.id)
			if err != nil {
				t.Fatal(err)
			}
			res, err := d.Run(context.Background(), tc.r)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, "pin_"+tc.id+".json", res)
		})
	}
}
