package mpi

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestWakeAllNotLostBeforeWait races a failure notification into the gap
// between a receiver's giveUp check and its cond.Wait: the first giveUp
// call starts a goroutine that marks the sender dead and calls wakeAll,
// then lingers before returning nil. The receiver must still observe the
// death instead of waiting forever.
func TestWakeAllNotLostBeforeWait(t *testing.T) {
	var m mailbox
	m.init()
	p := testWorld(2).Proc(0)
	errDead := errors.New("sender dead")
	var dead atomic.Bool
	var once sync.Once
	giveUp := func() error {
		if dead.Load() {
			return errDead
		}
		once.Do(func() {
			go func() {
				dead.Store(true)
				m.wakeAll()
			}()
			time.Sleep(20 * time.Millisecond)
		})
		return nil
	}
	done := make(chan error, 1)
	go func() {
		_, err := m.receive(p, msgKey{src: 1}, giveUp)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, errDead) {
			t.Fatalf("receive returned %v, want %v", err, errDead)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("receive missed a wakeAll issued between its giveUp check and cond.Wait")
	}
}
