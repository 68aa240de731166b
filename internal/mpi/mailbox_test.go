package mpi

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestWakeAllNotLostBeforeWait races each mailbox waker into the window
// between a receiver's waiter registration and its park: the receiver's
// first giveUp check (the real one, taken under the mailbox lock) starts
// the waker and lingers, so the waker publishes its state after the check
// and then blocks on the mailbox lock until the receiver has registered
// and unlocked. The receiver must still observe the wake-up instead of
// parking forever, and leave no wake-up unconsumed, at the test's
// GOMAXPROCS and on one host thread. A deliver for a key the receiver does
// not await must leave it parked, not re-checking, until its own key
// arrives.
func TestWakeAllNotLostBeforeWait(t *testing.T) {
	const tag = 5
	gotDelivery := func(msg message, err error) bool {
		return err == nil && len(msg.data) == 1 && msg.data[0] == 42
	}
	wakers := []struct {
		name    string
		wake    func(w *World, key msgKey)
		want    func(msg message, err error) bool
		foreign bool // wake delivers another key; the test then delivers key
	}{
		{"deliver", func(w *World, key msgKey) {
			w.Proc(0).mail.deliver(key, message{data: []byte{42}, seq: -1})
		}, gotDelivery, false},
		{"markDead", func(w *World, _ msgKey) {
			w.markDead(1)
		}, func(_ message, err error) bool {
			var fe *FailedError
			return errors.As(err, &fe)
		}, false},
		{"revoke", func(w *World, _ msgKey) {
			w.CommWorld().Revoke(w.Proc(1))
		}, func(_ message, err error) bool {
			return errors.Is(err, ErrRevoked)
		}, false},
		{"deliverOtherKey", func(w *World, key msgKey) {
			other := key
			other.tag++
			w.Proc(0).mail.deliver(other, message{data: []byte{7}, seq: -1})
		}, gotDelivery, true},
	}
	for _, sched := range []struct {
		name  string
		procs int // GOMAXPROCS for the run; 0 keeps the test's own
	}{{"goroutine", 0}, {"gomaxprocs1", 1}} {
		for _, wk := range wakers {
			t.Run(sched.name+"/"+wk.name, func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(sched.procs))
				w := testWorld(2)
				c := w.CommWorld()
				p := w.Proc(0)
				key := msgKey{comm: c.id, src: 1, tag: tag}
				var once sync.Once
				var checks atomic.Int32
				giveUp := func() error {
					checks.Add(1)
					err, _ := c.recvGiveUp(1)
					once.Do(func() {
						go wk.wake(w, key)
						time.Sleep(20 * time.Millisecond)
					})
					return err
				}
				type result struct {
					msg message
					err error
				}
				done := make(chan result, 1)
				go func() {
					msg, err := p.mail.receive(p, key, giveUp)
					done <- result{msg, err}
				}()
				if wk.foreign {
					// The foreign key must not release the receiver.
					select {
					case r := <-done:
						t.Fatalf("receive returned (%v, %v) on a deliver for another key", r.msg.data, r.err)
					case <-time.After(100 * time.Millisecond):
					}
					p.mail.mu.Lock()
					waiting := p.mail.waiter == p
					p.mail.mu.Unlock()
					if !waiting || checks.Load() != 1 {
						t.Fatalf("a deliver for another key woke the receiver (registered=%v, giveUp checks=%d)", waiting, checks.Load())
					}
					w.Proc(0).mail.deliver(key, message{data: []byte{42}, seq: -1})
				}
				select {
				case r := <-done:
					if !wk.want(r.msg, r.err) {
						t.Fatalf("receive returned (%v, %v)", r.msg.data, r.err)
					}
				case <-time.After(2 * time.Second):
					t.Fatal("receive missed a wake-up issued between its waiter registration and its park")
				}
				checkWakesConsumed(t, w)
			})
		}
	}
}
