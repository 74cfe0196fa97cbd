package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
)

// pinnedJSON holds the engine workloads' expected outputs for the pinned
// seeds: seed 1, used while the benchmark was written, and the held-out
// seed 2. Keys are "<workload>/<size>/seed<n>". "go test -run
// TestUpdatePins -update" rewrites them after an intended behaviour change.
//
//go:embed testdata/expected.json
var pinnedJSON []byte

func pinKey(opts options) string {
	size := "full"
	if opts.tiny {
		size = "tiny"
	}
	return fmt.Sprintf("%s/%s/seed%d", opts.workload, size, opts.seed)
}

// checkPinned compares a run's outputs with the pinned ones. It reports
// pinned=false when the seed has none.
func checkPinned(opts options, outputs map[string]any) (pinned bool, err error) {
	var pins map[string]json.RawMessage
	if err := json.Unmarshal(pinnedJSON, &pins); err != nil {
		return false, fmt.Errorf("reading pinned outputs: %w", err)
	}
	want, ok := pins[pinKey(opts)]
	if !ok {
		return false, nil
	}
	got, err := json.Marshal(outputs)
	if err != nil {
		return true, err
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, want); err != nil {
		return true, err
	}
	if !bytes.Equal(compact.Bytes(), got) {
		return true, fmt.Errorf("outputs differ from the pinned %s:\n got %s\nwant %s", pinKey(opts), got, compact.Bytes())
	}
	return true, nil
}
