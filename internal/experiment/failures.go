package experiment

import (
	"context"
	"fmt"
)

// Failures is the decapitation study: at t = 300 s (a third of the run when
// that is shorter) the ten lowest-ID nodes crash permanently. Under
// Lowest-ID/LCC those are precisely the nodes holding most clusterhead
// roles, so the crash beheads the hierarchy; under MOBIC headship is
// uncorrelated with ID. The per-window churn timeline shows the
// reclustering storm each algorithm suffers and how fast it settles — a
// failure mode the paper never tests but any deployment would.
func Failures(ctx context.Context, r Runner) (*Result, error) {
	const victims = 10
	xs, series, crashAt, err := churnTimeline(ctx, r, victims)
	if err != nil {
		return nil, err
	}
	return &Result{
		ID:     "failures",
		Title:  fmt.Sprintf("Decapitation: %d lowest-ID nodes crash at t=%.0f s (Tx 150 m)", victims, crashAt),
		XLabel: "simulated time (s)",
		YLabel: "clusterhead changes per 60 s window",
		X:      xs,
		Series: series,
		Notes: []string{
			"Under Lowest-ID the victims are the head set; under MOBIC headship",
			fmt.Sprintf("is ID-independent. Watch the window containing t=%.0f.", crashAt),
		},
	}, nil
}
