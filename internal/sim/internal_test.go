package sim

import (
	"container/heap"
	"testing"
	"time"
)

func TestEventHeapOrdering(t *testing.T) {
	var h eventHeap
	push := func(at time.Duration, seq int) {
		heap.Push(&h, &event{at: at, seq: seq})
	}
	push(30*time.Millisecond, 2)
	push(10*time.Millisecond, 5)
	push(30*time.Millisecond, 1) // same time, earlier seq
	push(20*time.Millisecond, 3)

	var got []int
	for h.Len() > 0 {
		got = append(got, heap.Pop(&h).(*event).seq)
	}
	want := []int{5, 3, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order %v, want %v", got, want)
		}
	}
}
