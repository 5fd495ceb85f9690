package lottery

// WithSeed sets the drawing seed (default 1). Only the tests draw from
// another seed; the policy is built by name, always at seed 1.
func WithSeed(seed uint64) Option { return func(c *cfg) { c.seed = seed } }
