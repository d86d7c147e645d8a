package core

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Checkpoint-store hygiene: a periodically checkpointed long job writes a
// new generation every interval; old generations are useless once newer
// ones exist.

// Generations lists the checkpoint generations stored for a VC, sorted.
func (c *Coordinator) Generations(vcName string) []int {
	prefix := fmt.Sprintf("lsc/%s/", vcName)
	seen := map[int]bool{}
	for _, key := range c.mgr.store.Keys(prefix) {
		rest := strings.TrimPrefix(key, prefix)
		genStr, _, ok := strings.Cut(rest, "/")
		if !ok {
			continue
		}
		gen, err := strconv.Atoi(genStr)
		if err != nil {
			continue
		}
		seen[gen] = true
	}
	gens := make([]int, 0, len(seen))
	for g := range seen {
		gens = append(gens, g)
	}
	sort.Ints(gens)
	return gens
}

// PruneGenerations deletes stored generations beyond the newest `keep`
// and returns the number of image objects deleted. Every stored image is
// self-contained, so nothing older than the kept generations is needed.
// Deletion is a metadata operation on the store (no transfer time).
func (c *Coordinator) PruneGenerations(vcName string, keep int) int {
	if keep < 1 {
		keep = 1
	}
	gens := c.Generations(vcName)
	if len(gens) <= keep {
		return 0
	}
	// Keys come back sorted, so deletion order replays identically run
	// to run (dvclint: mapiter).
	deleted := 0
	for _, g := range gens[:len(gens)-keep] {
		for _, key := range c.mgr.store.Keys(imageKey(vcName, g, "")) {
			c.mgr.store.Delete(key)
			deleted++
		}
	}
	// Deleting delta epochs only drops chunk references; reclaim the
	// now-unreferenced chunks (no-op for full images).
	c.mgr.store.GC()
	return deleted
}
