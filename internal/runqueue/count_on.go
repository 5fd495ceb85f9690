//go:build sfscount

package runqueue

// Counter counts one kind of work.
type Counter struct{ N int64 }

// Inc adds one.
func (c *Counter) Inc() { c.N++ }
