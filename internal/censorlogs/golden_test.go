package censorlogs

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// goldenLogs pins the exact WriteTo bytes of Generate at DefaultConfig with
// the given population and seed. A change to any digest is a change to E5's
// output, not a refactor.
var goldenLogs = []struct {
	users  int
	seed   int64
	sha256 string
}{
	{2100, 1, "7caa066f261d237eb641de21c7db2a431894d084aa1c2c04373210e35885280c"},
	{2100, 2, "22efd2ff0e513a28513bffd26588dae6aabd2754cea728c8b6f411075e7cc1c3"},
	{2100, 3, "0610cd7ecff41087ed062ea45cc5292268deda094817d905d6a9e1a73f40517c"},
	{21000, 1, "510d8fee46333879f55c412d5570332ecb4457d8ed7c27ecd1dd01dd3b92ec0d"},
}

func TestGenerateGoldenDigests(t *testing.T) {
	for _, g := range goldenLogs {
		if g.users > 2100 && testing.Short() {
			t.Logf("users=%d seed=%d: skipped under -short", g.users, g.seed)
			continue
		}
		cfg := DefaultConfig()
		cfg.Users = g.users
		cfg.Seed = g.seed
		entries := Generate(cfg)
		var buf bytes.Buffer
		if _, err := WriteTo(&buf, entries); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != g.sha256 {
			t.Errorf("users=%d seed=%d: digest %s, want %s", g.users, g.seed, got, g.sha256)
		}
		// No two entries share a timestamp, so the tie order Generate
		// defines cannot reach these digests.
		if n := countTies(entries); n != 0 {
			t.Errorf("users=%d seed=%d: %d equal adjacent timestamps, want 0", g.users, g.seed, n)
		}
	}
}

// countTies counts adjacent entries with equal Time in a time-sorted log.
func countTies(entries []Entry) int {
	n := 0
	for i := 1; i < len(entries); i++ {
		if entries[i].Time == entries[i-1].Time {
			n++
		}
	}
	return n
}
