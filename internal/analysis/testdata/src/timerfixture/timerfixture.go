// Package timerfixture seeds timercheck violations: timers returned by
// AfterFunc and thrown away, so nothing can stop them, next to the ways
// of keeping one and the directive escape hatch.
package timerfixture

import "time"

type Timer interface{ Stop() bool }

type Clock interface {
	AfterFunc(d time.Duration, f func()) Timer
}

type owner struct {
	clk    Clock
	timer  Timer
	timers []Timer
}

func (o *owner) violations() {
	o.clk.AfterFunc(time.Second, func() {})         // want `timer returned by AfterFunc is discarded`
	_ = o.clk.AfterFunc(time.Second, func() {})     // want `timer returned by AfterFunc is discarded`
	n, _ := 1, o.clk.AfterFunc(time.Second, o.tick) // want `timer returned by AfterFunc is discarded`
	go o.clk.AfterFunc(time.Second, func() {})      // want `timer returned by AfterFunc is discarded`
	defer o.clk.AfterFunc(time.Second, func() {})   // want `timer returned by AfterFunc is discarded`
	(o.clk.AfterFunc(time.Duration(n), func() {}))  // want `timer returned by AfterFunc is discarded`
	time.AfterFunc(time.Second, func() {})          // want `timer returned by AfterFunc is discarded`
}

func (o *owner) kept() {
	o.timer = o.clk.AfterFunc(time.Second, o.tick)
	t := o.clk.AfterFunc(time.Second, o.tick)
	o.timers = append(o.timers, t, o.clk.AfterFunc(time.Second, o.tick))
	t.Stop()
}

func (o *owner) allowed() {
	//openwf:allow-timer fires once before its owner can shut down
	o.clk.AfterFunc(time.Second, o.tick)
}

func (o *owner) tick() {}

// AfterFunc here returns no timer, so there is nothing to keep.
func AfterFunc(f func()) { f() }

func notATimer() { AfterFunc(func() {}) }
