package server

import "container/heap"

// sessionQueue is the dispatch queue: a binary heap whose order is the
// policy's Less, so FIFO and priority policies reuse one structure. Guarded
// by the owning Server's mutex.
type sessionQueue struct {
	less  func(a, b *Session) bool
	items []*Session
}

func newSessionQueue(less func(a, b *Session) bool) *sessionQueue {
	return &sessionQueue{less: less}
}

// heap.Interface; not used directly by the server.
func (q *sessionQueue) Len() int           { return len(q.items) }
func (q *sessionQueue) Less(i, j int) bool { return q.less(q.items[i], q.items[j]) }
func (q *sessionQueue) Swap(i, j int)      { q.items[i], q.items[j] = q.items[j], q.items[i] }
func (q *sessionQueue) Push(x any)         { q.items = append(q.items, x.(*Session)) }
func (q *sessionQueue) Pop() any {
	old := q.items
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	q.items = old[:n-1]
	return it
}

// Enqueue inserts a session in policy order.
func (q *sessionQueue) Enqueue(s *Session) { heap.Push(q, s) }

// Dequeue removes and returns the next session to dispatch (nil if empty).
func (q *sessionQueue) Dequeue() *Session {
	if len(q.items) == 0 {
		return nil
	}
	return heap.Pop(q).(*Session)
}

// Peek returns the next session to dispatch without removing it.
func (q *sessionQueue) Peek() *Session {
	if len(q.items) == 0 {
		return nil
	}
	return q.items[0]
}
