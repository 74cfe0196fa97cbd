package experiment

import "fmt"

// checkpointVersion is the wire version of a shipped checkpoint prefix.
// Bump it on any CellStats encoding change: a worker must never resume
// from a prefix a differently-versioned worker journaled, because
// resume-equals-rerun is only proven within one encoding.
const checkpointVersion = 1

// CheckpointSet is the portable form of a sweep's completed-cell prefix:
// what a worker exports from its journal (GET /v1/jobs/{id}/checkpoints)
// and accepts in a restore body (POST /v1/jobs/{id}/restore). Cells[i] is
// the aggregate of sweep cell i; the prefix property — cells 0..len-1
// complete, nothing beyond — is exactly the shape Runner.StartCell/Resume
// consumes, which is what makes a restored run byte-equal to an
// uninterrupted one.
type CheckpointSet struct {
	// Version pins the encoding; Resume rejects mismatches.
	Version int `json:"version"`
	// Cells is the contiguous completed prefix, in cell order.
	Cells []CellStats `json:"cells,omitempty"`
}

// ExportCheckpoints wraps a completed-cell prefix for the wire.
func ExportCheckpoints(cells []CellStats) CheckpointSet {
	return CheckpointSet{Version: checkpointVersion, Cells: cells}
}

// Resume validates the set and returns the prefix to hand to
// Runner.Resume (StartCell = len).
func (cs CheckpointSet) Resume() ([]CellStats, error) {
	if cs.Version != checkpointVersion {
		return nil, fmt.Errorf("experiment: checkpoint version %d, want %d", cs.Version, checkpointVersion)
	}
	return cs.Cells, nil
}
