package analytic

// Shares exposes the compiled hop-weighted and total traffic shares to
// the external golden test.
func (c *Compiled) Shares() (hop, total float64) { return c.hopShare, c.totalShare }
