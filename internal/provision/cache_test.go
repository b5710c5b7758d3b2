package provision

import (
	"math/rand"
	"testing"

	"github.com/public-option/poc/internal/linkset"
	"github.com/public-option/poc/internal/traffic"
)

func TestFeasibilityCacheHitsAndMisses(t *testing.T) {
	p := shaveNet(10, 10, 10)
	tm := traffic.NewMatrix(2)
	tm.Set(0, 1, 8)
	fc := NewFeasibilityCache()

	ok, _ := fc.Check(p, nil, tm, Constraint1, Options{}, 0)
	if !ok {
		t.Fatal("feasible instance rejected")
	}
	if fc.Hits() != 0 || fc.Misses() != 1 {
		t.Fatalf("hits=%d misses=%d after first lookup, want 0/1", fc.Hits(), fc.Misses())
	}
	ok, _ = fc.Check(p, nil, tm, Constraint1, Options{}, 0)
	if !ok {
		t.Fatal("cached answer flipped")
	}
	if fc.Hits() != 1 || fc.Misses() != 1 {
		t.Fatalf("hits=%d misses=%d after repeat, want 1/1", fc.Hits(), fc.Misses())
	}

	// A different include set is a different key.
	inc := linkset.FromIDs([]int{0, 1}, len(p.Links))
	if ok, _ := fc.Check(p, inc, tm, Constraint1, Options{}, 0); !ok {
		t.Fatal("two-link subset infeasible")
	}
	if fc.Misses() != 2 {
		t.Fatalf("misses=%d after distinct set, want 2", fc.Misses())
	}
	if fc.Len() != 2 {
		t.Fatalf("len=%d, want 2", fc.Len())
	}
}

// TestFeasibilityCacheReset pins the unbounded-growth fix: Reset must
// drop both the memoized entries and the pointer-keyed traffic-matrix
// fingerprints (a long-lived cache fed a fresh matrix per chaos epoch
// would otherwise leak one fingerprint per retired matrix), while the
// hit/miss counters — which describe lookups, not contents — survive.
func TestFeasibilityCacheReset(t *testing.T) {
	p := shaveNet(10, 10, 10)
	fc := NewFeasibilityCache()
	for i := 0; i < 5; i++ {
		tm := traffic.NewMatrix(2)
		tm.Set(0, 1, float64(i+1))
		if ok, _ := fc.Check(p, nil, tm, Constraint1, Options{}, 0); !ok {
			t.Fatalf("epoch %d infeasible", i)
		}
	}
	if fc.Len() != 5 {
		t.Fatalf("len=%d before reset, want 5", fc.Len())
	}
	fc.tmMu.Lock()
	nFP := len(fc.tmFP)
	fc.tmMu.Unlock()
	if nFP != 5 {
		t.Fatalf("tracked %d matrix fingerprints, want 5", nFP)
	}
	hits, misses := fc.Hits(), fc.Misses()

	fc.Reset()

	if fc.Len() != 0 {
		t.Fatalf("len=%d after reset, want 0", fc.Len())
	}
	fc.tmMu.Lock()
	nFP = len(fc.tmFP)
	fc.tmMu.Unlock()
	if nFP != 0 {
		t.Fatalf("%d matrix fingerprints survived reset", nFP)
	}
	if fc.Hits() != hits || fc.Misses() != misses {
		t.Fatalf("counters changed across reset: %d/%d -> %d/%d",
			hits, misses, fc.Hits(), fc.Misses())
	}

	// The cache still works after a reset, and the first lookup is a
	// miss again (the entries really are gone).
	tm := traffic.NewMatrix(2)
	tm.Set(0, 1, 3)
	if ok, _ := fc.Check(p, nil, tm, Constraint1, Options{}, 0); !ok {
		t.Fatal("post-reset check infeasible")
	}
	if fc.Misses() != misses+1 {
		t.Fatalf("misses=%d after post-reset lookup, want %d", fc.Misses(), misses+1)
	}
}

// TestFeasibilityCacheCoreUpgrade pins the Check->CheckCore upgrade
// path: a plain Check entry has no core, so a CheckCore for the same
// key recomputes once and the upgraded entry then serves core hits.
func TestFeasibilityCacheCoreUpgrade(t *testing.T) {
	p := shaveNet(10, 10, 10)
	tm := traffic.NewMatrix(2)
	tm.Set(0, 1, 8)
	fc := NewFeasibilityCache()

	if ok, _ := fc.Check(p, nil, tm, Constraint1, Options{}, 0); !ok {
		t.Fatal("infeasible")
	}
	ok, core := fc.CheckCore(p, nil, tm, Constraint1, Options{}, 0)
	if !ok || core == nil || core.Len() == 0 {
		t.Fatalf("core upgrade failed: ok=%v core=%v", ok, core)
	}
	misses := fc.Misses()
	ok2, core2 := fc.CheckCore(p, nil, tm, Constraint1, Options{}, 0)
	if !ok2 || core2 == nil {
		t.Fatal("core hit failed")
	}
	if fc.Misses() != misses {
		t.Fatal("core hit recomputed")
	}
}

// TestWorkspaceCheckMatchesCold is the cache-vs-cold property test: a
// random enable/disable sequence driven through one shared Workspace
// must produce byte-identical Check AND CheckCore results to a cold
// recompute at every step, for every constraint, at 1 and 4 workers
// (the parallel scenario sweep runs under -race in CI). A fresh
// FeasibilityCache per step forces every probe past the exact-key
// cache and onto the workspace's recycled arenas.
func TestWorkspaceCheckMatchesCold(t *testing.T) {
	for _, workers := range []int{1, 4} {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			p := ringNet(rng, 12, 14)
			tm := randomTM(rng, 12, 8, 9)
			opts := Options{FailureScenarios: 4, Workers: workers}
			wsOpts := opts
			wsOpts.Workspace = NewWorkspace(p, opts)

			cur := linkset.All(len(p.Links))
			var history []*linkset.Set
			for step := 0; step < 20; step++ {
				switch rng.Intn(4) {
				case 0, 1: // remove a few enabled links
					ids := cur.AppendIDs(nil)
					for k := 0; k < 1+rng.Intn(3) && len(ids) > 4; k++ {
						i := rng.Intn(len(ids))
						cur.Remove(ids[i])
						ids = append(ids[:i], ids[i+1:]...)
					}
				case 2: // add back a removed link
					for id := 0; id < len(p.Links); id++ {
						if !cur.Contains(id) && rng.Intn(3) == 0 {
							cur.Add(id)
							break
						}
					}
				case 3: // jump back to an earlier set
					if len(history) > 0 {
						cur = history[rng.Intn(len(history))].Clone()
					}
				}
				history = append(history, cur.Clone())

				for _, c := range []Constraint{Constraint1, Constraint2, Constraint3} {
					fc := NewFeasibilityCache()
					gotOK, gotSum := fc.Check(p, cur, tm, c, wsOpts, 0)
					coldOK, coldR := Check(p, cur, tm, c, opts)
					coldSum := summarize(p, coldOK, coldR)
					if gotOK != coldOK || gotSum != coldSum {
						t.Fatalf("workers=%d seed=%d step=%d %v: cached (%v %+v) != cold (%v %+v)",
							workers, seed, step, c, gotOK, gotSum, coldOK, coldSum)
					}

					fc2 := NewFeasibilityCache()
					gotOK2, gotCore := fc2.CheckCore(p, cur, tm, c, wsOpts, 0)
					coldOK2, coldCore := CheckCore(p, cur, tm, c, opts)
					if gotOK2 != coldOK2 || !sameCore(gotCore, coldCore) {
						t.Fatalf("workers=%d seed=%d step=%d %v: cached core mismatch (ok %v vs %v)",
							workers, seed, step, c, gotOK2, coldOK2)
					}
				}
			}
		}
	}
}
