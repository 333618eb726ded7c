package lru

import (
	"fmt"
	"slices"
	"sync"
	"testing"
)

// step is one operation on a Cache[string, int64] whose values are their own
// weights. op is '+' (Add key val; want is the value Add returns), '?' (Get
// key; want is the value found, or -1 for a miss) or '-' (Sweep the entries
// whose key is key; want is the number dropped).
type step struct {
	op   byte
	key  string
	val  int64
	want int64
}

func TestCache(t *testing.T) {
	for _, tc := range []struct {
		name      string
		maxN      int
		maxWeight int64
		steps     []step
		values    []int64 // Values() afterwards, most recently used first
		stats     Stats
	}{
		{
			name: "count bound evicts the least recently used",
			maxN: 2,
			steps: []step{
				{'+', "a", 1, 1}, {'+', "b", 2, 2},
				{'?', "a", 0, 1}, // a is now the most recent
				{'+', "c", 3, 3}, // evicts b
				{'?', "b", 0, -1},
			},
			values: []int64{3, 1},
			stats:  Stats{Size: 2, Capacity: 2, Bytes: 4, Hits: 1, Misses: 1, Evictions: 1},
		},
		{
			name: "weight bound evicts until the sum fits",
			maxN: 10, maxWeight: 10,
			steps: []step{
				{'+', "a", 4, 4}, {'+', "b", 4, 4},
				{'?', "a", 0, 4},
				{'+', "c", 5, 5}, // 13 > 10: evicts b, the least recent
				{'+', "d", 6, 6}, // 15 > 10: evicts a, then 11 > 10: evicts c
			},
			values: []int64{6},
			stats:  Stats{Size: 1, Capacity: 10, Bytes: 6, MaxBytes: 10, Hits: 1, Evictions: 3},
		},
		{
			name: "an entry heavier than the weight bound is not stored",
			maxN: 10, maxWeight: 10,
			steps: []step{
				{'+', "a", 3, 3},
				{'+', "big", 11, 11},
				{'?', "big", 0, -1},
			},
			values: []int64{3},
			stats:  Stats{Size: 1, Capacity: 10, Bytes: 3, MaxBytes: 10, Misses: 1},
		},
		{
			name: "the first stored value wins",
			maxN: 4, maxWeight: 100,
			steps: []step{
				{'+', "a", 1, 1},
				{'+', "b", 2, 2},
				{'+', "a", 7, 1}, // a second store returns the first value
				{'?', "a", 0, 1},
			},
			values: []int64{1, 2},
			stats:  Stats{Size: 2, Capacity: 4, Bytes: 3, MaxBytes: 100, Hits: 1},
		},
		{
			name: "a sweep returns weight to the budget",
			maxN: 4, maxWeight: 10,
			steps: []step{
				{'+', "a", 4, 4}, {'+', "b", 5, 5},
				{'-', "a", 0, 1},
				{'-', "zzz", 0, 0},
				{'+', "c", 5, 5}, // fits only because a's 4 came back
				{'?', "b", 0, 5},
			},
			values: []int64{5, 5},
			stats:  Stats{Size: 2, Capacity: 4, Bytes: 10, MaxBytes: 10, Hits: 1, Evictions: 1},
		},
		{
			name: "no weight function means no weight bound",
			maxN: 2, maxWeight: -1,
			steps: []step{
				{'+', "a", 1 << 40, 1 << 40},
				{'?', "x", 0, -1}, {'?', "a", 0, 1 << 40},
			},
			values: []int64{1 << 40},
			stats:  Stats{Size: 1, Capacity: 2, Hits: 1, Misses: 1},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			weigh := func(v int64) int64 { return v }
			if tc.maxWeight < 0 {
				weigh = nil
			}
			c := New[string, int64](tc.maxN, tc.maxWeight, weigh)
			for i, s := range tc.steps {
				var got int64
				switch s.op {
				case '+':
					got = c.Add(s.key, s.val)
				case '?':
					v, ok := c.Get(s.key)
					if got = v; !ok {
						got = -1
					}
				case '-':
					got = int64(c.Sweep(func(k string, _ int64) bool { return k == s.key }))
				}
				if got != s.want {
					t.Fatalf("step %d (%c %s): got %d, want %d", i, s.op, s.key, got, s.want)
				}
			}
			if got := c.Values(); !slices.Equal(got, tc.values) {
				t.Errorf("values = %v, want %v", got, tc.values)
			}
			if got := c.Stats(); got != tc.stats {
				t.Errorf("stats = %+v, want %+v", got, tc.stats)
			}
			c.Reset()
			if got := c.Stats(); got != (Stats{Capacity: tc.stats.Capacity, MaxBytes: tc.stats.MaxBytes}) {
				t.Errorf("after Reset: %+v", got)
			}
		})
	}
}

// Concurrent misses, stores, hits and sweeps over a churning key set, run
// under -race: every caller that stores a key gets back the one value the
// cache holds for it, and the bounds hold throughout.
func TestCacheConcurrent(t *testing.T) {
	c := New[int, *int](8, 64, func(*int) int64 { return 5 })
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := (g + i) % 12
				if i%97 == 0 {
					c.Sweep(func(key int, _ *int) bool { return key == k })
					continue
				}
				if v, ok := c.Get(k); ok {
					if *v != k {
						errs <- fmt.Errorf("key %d holds %d", k, *v)
						return
					}
					continue
				}
				v := k
				if got := c.Add(k, &v); *got != k {
					errs <- fmt.Errorf("Add(%d) returned %d", k, *got)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := c.Stats()
	if st.Size > 8 || st.Bytes > 64 || st.Bytes != 5*int64(st.Size) {
		t.Fatalf("bounds broken: %+v", st)
	}
	if st.Evictions == 0 || st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("churning working set should hit, miss and evict: %+v", st)
	}
}
