package lib

// Config is the option census's fixture: user.go sets Set, and the
// defaults filled here do not count for Unset.
type Config struct {
	Set   int
	Unset int
}

func (c Config) withDefaults() Config {
	if c.Unset == 0 {
		c.Unset = 1
	}
	return c
}
