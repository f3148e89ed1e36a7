package main

import "testing"

func TestSelfTimeSubtractsUnionOfOverlappingChildren(t *testing.T) {
	parent := Span{ID: 1, Start: 0, End: 100}
	cases := []struct {
		name     string
		children []Span
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []Span{{Start: 10, End: 20}, {Start: 30, End: 40}}, 80},
		// Two workers: runs [10,50) and [30,70) overlap on [30,50); the
		// covered part is [10,70), not 40+40.
		{"overlapping", []Span{{Start: 30, End: 70}, {Start: 10, End: 50}}, 40},
		{"nested", []Span{{Start: 10, End: 90}, {Start: 20, End: 30}}, 20},
		{"touching", []Span{{Start: 10, End: 20}, {Start: 20, End: 30}}, 80},
		{"clipped to parent", []Span{{Start: -10, End: 10}, {Start: 95, End: 120}}, 85},
		{"outside parent", []Span{{Start: 100, End: 120}}, 100},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestSelfByNameNestsThroughScope(t *testing.T) {
	rec := NewRecorder()
	spans := []Span{
		{Name: "op", Start: 0, End: 100},
		{Name: "cachesim.Flush", Parent: 1, Start: 10, End: 40},
		{Name: "dramsim.FlushTx", Parent: 2, Start: 20, End: 30},
		{Name: "cpusim.FlushEvents", Parent: 1, Start: 50, End: 60},
	}
	for _, s := range spans {
		s.Run = 7
		rec.Add(s)
	}
	self := selfByName(rec.Run(7))
	want := map[string]int64{"op": 60, "cachesim.Flush": 20, "dramsim.FlushTx": 10, "cpusim.FlushEvents": 10}
	var sum int64
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self[%s] = %d, want %d", name, self[name], w)
		}
		sum += self[name]
	}
	if sum != 100 {
		t.Errorf("self times sum to %d, want the root span's 100", sum)
	}
}

func TestScopeParentsToInnermostOpenSpan(t *testing.T) {
	rec := NewRecorder()
	sc := &scope{rec: rec, run: 1}
	sc.begin("a")
	sc.begin("b")
	sc.end()
	sc.begin("c")
	sc.end()
	sc.end()
	spans := rec.Run(1)
	if len(spans) != 3 || spans[1].Parent != spans[0].ID || spans[2].Parent != spans[0].ID || spans[0].Parent != 0 {
		t.Fatalf("unexpected parents: %+v", spans)
	}
	for _, s := range spans {
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
}
