//go:build !sfscount

package runqueue

// Counter counts one kind of work under the sfscount build tag; here it is
// empty and Inc does nothing.
type Counter struct{}

// Inc adds one under the sfscount build tag.
func (*Counter) Inc() {}
