package provision

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// scanCrossing is the crossing index's oracle: a brute-force scan of
// every pair's assignments for link l.
func scanCrossing(lists [][]PathAssignment, l int) []int32 {
	var out []int32
	for i, list := range lists {
		for _, a := range list {
			if slices.Contains(a.Links, l) {
				out = append(out, int32(i))
				break
			}
		}
	}
	return out
}

func checkCrossing(t *testing.T, s *Shaver, step string) {
	t.Helper()
	for r, lr := range s.routings() {
		for l := range s.p.Links {
			want := scanCrossing(lr.lists, l)
			got := lr.crossing(l)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s: routing %d link %d: index %v, scan %v", step, r, l, got, want)
			}
		}
	}
}

// TestCrossingIndexMatchesScan drives random TryDrop sequences —
// commits and rollbacks, Constraint-2 scenario swaps, Constraint-3
// reanchors, index rebuilds — and checks after every call that each
// live routing's crossing index answers exactly what a scan of its
// assignment lists does, for every link.
func TestCrossingIndexMatchesScan(t *testing.T) {
	var commits, rollbacks, swaps, reanchors, rebuilds int
	for _, c := range []Constraint{Constraint1, Constraint2, Constraint3} {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			p := ringNet(rng, 9, 16)
			tm := randomTM(rng, 9, 14, 6)
			s, ok := NewShaver(p, nil, tm, c, Options{FailureScenarios: 6})
			if !ok {
				t.Fatalf("%v seed %d: instance rejected", c, seed)
			}
			checkCrossing(t, s, "build")
			for step := 0; step < 3*len(p.Links); step++ {
				link := rng.Intn(len(p.Links))
				var before []*liveRouting
				for _, sc := range s.scenarios {
					before = append(before, sc.lr)
				}
				avoids := map[[2]int]bool{}
				if s.degraded != nil {
					for pair, av := range s.degraded.avoid {
						avoids[pair] = av.Contains(link)
					}
				}
				added := s.base.rt.xi.added
				if s.TryDrop(link) {
					commits++
					for i, sc := range s.scenarios {
						if sc.lr != before[i] {
							swaps++
						}
					}
					for _, moved := range avoids {
						if moved {
							reanchors++
						}
					}
				} else if s.include.Contains(link) {
					rollbacks++
				}
				checkCrossing(t, s, fmt.Sprintf("%v seed %d step %d TryDrop(%d)", c, seed, step, link))
				if s.base.rt.xi.added < added {
					rebuilds++
				}
			}
			s.Close()
		}
	}
	t.Logf("commits %d rollbacks %d scenario swaps %d reanchors %d rebuilds %d", commits, rollbacks, swaps, reanchors, rebuilds)
	if commits == 0 || rollbacks == 0 || swaps == 0 || reanchors == 0 || rebuilds == 0 {
		t.Fatal("the drop sequences no longer exercise every index update path")
	}
}
