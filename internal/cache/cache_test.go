package cache

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"mobic/internal/obs"
)

// key returns a distinct valid (lowercase hex) key per index.
func key(i int) string { return fmt.Sprintf("%064x", i+1) }

func TestMemoryHitAndMiss(t *testing.T) {
	c, err := Open(Config{MaxEntries: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(key(0)); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(key(0), []byte("v0"))
	got, ok := c.Get(key(0))
	if !ok || string(got) != "v0" {
		t.Fatalf("Get = %q, %v; want v0, true", got, ok)
	}
}

func TestMemoryLRUEviction(t *testing.T) {
	c, err := Open(Config{MaxEntries: 2})
	if err != nil {
		t.Fatal(err)
	}
	c.Put(key(0), []byte("v0"))
	c.Put(key(1), []byte("v1"))
	// Touch key 0 so key 1 becomes the LRU victim.
	if _, ok := c.Get(key(0)); !ok {
		t.Fatal("lost key 0")
	}
	c.Put(key(2), []byte("v2"))
	if _, ok := c.Get(key(1)); ok {
		t.Fatal("key 1 should have been evicted")
	}
	if _, ok := c.Get(key(0)); !ok {
		t.Fatal("recently used key 0 evicted instead of LRU")
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
}

func TestRejectsBadKeysAndValues(t *testing.T) {
	c, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"", "UPPER", "has-dash", "xyz!", string(make([]byte, 200))} {
		c.Put(k, []byte("v"))
		if _, ok := c.Get(k); ok {
			t.Fatalf("invalid key %q was stored", k)
		}
	}
	c.Put(key(0), nil)
	if _, ok := c.Get(key(0)); ok {
		t.Fatal("empty value was stored")
	}
}

func TestDiskPersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(Config{Dir: dir, MaxEntries: 4})
	if err != nil {
		t.Fatal(err)
	}
	val := bytes.Repeat([]byte("payload"), 100)
	c.Put(key(0), val)

	// A second cache over the same directory — a restarted daemon — serves
	// the value from disk.
	c2, err := Open(Config{Dir: dir, MaxEntries: 4})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c2.Get(key(0))
	if !ok || !bytes.Equal(got, val) {
		t.Fatalf("reopened cache: Get ok=%v len=%d, want len=%d", ok, len(got), len(val))
	}
	// The disk read promoted it into memory: a second Get must not touch disk.
	if err := os.Remove(filepath.Join(dir, key(0)+fileSuffix)); err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Get(key(0)); !ok {
		t.Fatal("promoted value lost after file removal")
	}
}

func TestDiskCorruptionDegradesToMiss(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	c.Put(key(0), []byte("good value"))
	path := filepath.Join(dir, key(0)+fileSuffix)

	// Flip a payload byte on disk, then reopen so memory starts cold.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	c2, err := Open(Config{Dir: dir, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Get(key(0)); ok {
		t.Fatal("corrupt entry served as a hit")
	}
	// The bad file was quarantined (not deleted) so a rewrite starts clean
	// but the evidence survives for forensics.
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("corrupt file still in the lookup path: %v", err)
	}
	if _, err := os.Stat(path + corruptSuffix); err != nil {
		t.Fatalf("corrupt file not quarantined: %v", err)
	}
	if n := reg.Counter(obs.CacheCorrupt); n != 1 {
		t.Fatalf("CacheCorrupt = %d, want 1", n)
	}
	// The poisoned bytes can never be served again: a later Get is still a
	// miss, and a fresh Open does not index the quarantined file.
	if _, ok := c2.Get(key(0)); ok {
		t.Fatal("quarantined entry re-served")
	}
	c3, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if db := c3.DiskBytes(); db != 0 {
		t.Fatalf("quarantined file indexed on reopen: DiskBytes = %d", db)
	}
	if _, ok := c3.Get(key(0)); ok {
		t.Fatal("quarantined entry served after reopen")
	}
	// The slot itself still works: a fresh Put lands and reads back.
	c3.Put(key(0), []byte("fresh value"))
	if v, ok := c3.Get(key(0)); !ok || string(v) != "fresh value" {
		t.Fatalf("rewrite after quarantine failed: %q %v", v, ok)
	}
}

func TestDiskByteBoundEvictsOldest(t *testing.T) {
	dir := t.TempDir()
	val := bytes.Repeat([]byte("x"), 1000)
	c, err := Open(Config{Dir: dir, MaxDiskBytes: 3500, MaxEntries: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		c.Put(key(i), val)
	}
	if db := c.DiskBytes(); db > 3500 {
		t.Fatalf("DiskBytes = %d, want <= 3500", db)
	}
	// Oldest entries fell off; the newest survives (MaxEntries 1 keeps the
	// memory layer from masking disk behaviour).
	if _, ok := c.Get(key(0)); ok {
		t.Fatal("oldest entry survived the byte bound")
	}
	if _, ok := c.Get(key(4)); !ok {
		t.Fatal("newest entry evicted")
	}
}

func TestOpenSkipsForeignFiles(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"README.txt", "entry-123.tmp", "UPPER" + fileSuffix} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	c, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if db := c.DiskBytes(); db != 0 {
		t.Fatalf("foreign files indexed: DiskBytes = %d", db)
	}
}

func TestObsCounters(t *testing.T) {
	reg := obs.NewRegistry()
	c, err := Open(Config{MaxEntries: 1, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	c.Get(key(0)) // miss
	c.Put(key(0), []byte("v"))
	c.Get(key(0))              // hit
	c.Put(key(1), []byte("w")) // evicts key 0 (memory-only ⇒ counted)
	hits, misses, evs := reg.Counter(obs.CacheHits), reg.Counter(obs.CacheMisses), reg.Counter(obs.CacheEvictions)
	if misses != 1 || hits != 1 || evs != 1 {
		t.Fatalf("hits=%d misses=%d evictions=%d, want 1/1/1", hits, misses, evs)
	}
}

func TestFlightCollapse(t *testing.T) {
	f := NewFlight()
	leader, isLeader := f.Begin("d1", "job-a")
	if !isLeader || leader != "job-a" {
		t.Fatalf("first Begin = %q, %v; want job-a, true", leader, isLeader)
	}
	leader, isLeader = f.Begin("d1", "job-b")
	if isLeader || leader != "job-a" {
		t.Fatalf("second Begin = %q, %v; want job-a, false", leader, isLeader)
	}
	if id, ok := f.Leader("d1"); !ok || id != "job-a" {
		t.Fatalf("Leader = %q, %v", id, ok)
	}
	// Only the leader ends its flight: a finishing attacher or a job that
	// never led leaves the slot where it is.
	f.End("d1", "job-b")
	if id, ok := f.Leader("d1"); !ok || id != "job-a" {
		t.Fatalf("Leader after a non-leader End = %q, %v; want job-a", id, ok)
	}
	f.End("d1", "job-a")
	if _, ok := f.Leader("d1"); ok {
		t.Fatal("flight survived End")
	}
	if _, isLeader := f.Begin("d1", "job-c"); !isLeader {
		t.Fatal("new leader not accepted after End")
	}
	f.End("unknown", "job-c") // no-op
	if f.Len() != 1 {
		t.Fatalf("Len = %d, want 1", f.Len())
	}
}
