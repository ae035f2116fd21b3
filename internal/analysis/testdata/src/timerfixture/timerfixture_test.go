package timerfixture

import "time"

// Tests may arm throwaway timers: a test's lifetime bounds them.
func exemptInTests(o *owner) {
	o.clk.AfterFunc(time.Second, func() {})
}
