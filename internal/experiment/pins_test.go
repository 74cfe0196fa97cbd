package experiment

import (
	"context"
	"testing"

	"mobic/internal/simnet"
)

// pinnedRuns lists the experiments whose Result JSON is pinned byte for
// byte in testdata/pin_<id>.json: every experiment in All() but table1,
// which runs no simulation. The cell-grid experiments, cbrp and convergence
// run at fastRunner(2). Routes, hierarchy and timeline run 300 s, long
// enough for several probe epochs or windows (at 60 s routes takes no
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
		{"fig3", fastRunner(2)},
		{"fig4", fastRunner(2)},
		{"fig5", fastRunner(2)},
		{"fig6a", fastRunner(2)},
		{"fig6b", fastRunner(2)},
		{"ablate-cci", fastRunner(2)},
		{"ablate-lcc", fastRunner(2)},
		{"ablate-history", fastRunner(2)},
		{"adaptive-bi", fastRunner(2)},
		{"maxdeg", fastRunner(2)},
		{"propagation", fastRunner(2)},
		{"loss", fastRunner(2)},
		{"oracle", fastRunner(2)},
		{"mac", fastRunner(2)},
		{"policies", fastRunner(2)},
		{"fairness", fastRunner(2)},
		{"cci-sweep", fastRunner(2)},
		{"bi-sweep", fastRunner(2)},
		{"wca", fastRunner(2)},
		{"claims", fastRunner(2)},
		{"residence", fastRunner(2)},
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
