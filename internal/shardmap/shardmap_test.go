package shardmap

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"sort"
	"sync"
	"testing"
)

func TestMapSemantics(t *testing.T) {
	m := New[int](4)
	if _, ok := m.Get("a"); ok {
		t.Fatal("Get on an empty map reported a hit")
	}
	for i, k := range []string{"c", "a", "b"} {
		m.Put(k, i)
	}
	m.Put("a", 10) // replace
	if v, ok := m.Get("a"); !ok || v != 10 {
		t.Errorf("Get(a) = %d, %v; want 10, true", v, ok)
	}
	if got := m.Keys(); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Errorf("Keys = %v, want sorted [a b c]", got)
	}
	vals := m.Values()
	sort.Ints(vals)
	if !reflect.DeepEqual(vals, []int{0, 2, 10}) {
		t.Errorf("Values = %v", vals)
	}
	m.Delete("b")
	m.Delete("missing")
	if m.Len() != 2 {
		t.Errorf("Len after delete = %d, want 2", m.Len())
	}
	if _, ok := m.Get("b"); ok {
		t.Error("deleted key still present")
	}
}

// TestIndexIsFNV1a pins the shard scheme to FNV-1a, so every sharded
// structure places a given ID on the same shard index.
func TestIndexIsFNV1a(t *testing.T) {
	for _, key := range []string{"", "q001", "sess-000042", "cat-000007", "ünïcode"} {
		h := fnv.New32a()
		h.Write([]byte(key))
		for _, n := range []int{1, 7, 32} {
			if got, want := Index(key, n), int(h.Sum32()%uint32(n)); got != want {
				t.Errorf("Index(%q, %d) = %d, want %d", key, n, got, want)
			}
		}
	}
}

// TestGetPutDoNotAllocate: both run on every learner operation.
func TestGetPutDoNotAllocate(t *testing.T) {
	m := New[*int](32)
	v := new(int)
	m.Put("sess-000001", v)
	if n := testing.AllocsPerRun(1000, func() {
		m.Put("sess-000001", v)
		if _, ok := m.Get("sess-000001"); !ok {
			t.Fatal("miss")
		}
	}); n != 0 {
		t.Errorf("Get+Put allocate %v times per call, want 0", n)
	}
}

// TestConcurrentAccess exercises every method from several goroutines at
// once; run under -race.
func TestConcurrentAccess(t *testing.T) {
	m := New[int](8)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("w%d-%d", w, i%20)
				m.Put(k, i)
				m.Get(k)
				if i%3 == 0 {
					m.Delete(k)
				}
				if i%50 == 0 {
					m.Keys()
					m.Values()
					m.Len()
				}
			}
		}(w)
	}
	wg.Wait()
	if got, want := m.Len(), len(m.Keys()); got != want {
		t.Errorf("Len = %d, Keys has %d", got, want)
	}
}
