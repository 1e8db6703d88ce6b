package main

import "testing"

// base is the command line with every flag at its default.
var base = config{heights: 8, angles: 4, pattern: "uniform", load: 0.5, cycles: 20000}

func TestConfigValidate_Valid(t *testing.T) {
	tests := []struct {
		name string
		edit func(*config)
	}{
		{"defaults", func(*config) {}},
		{"no offered load", func(c *config) { c.load = 0 }},
		{"full load", func(c *config) { c.load = 1 }},
		{"every pattern name", func(c *config) { c.pattern = "bursty" }},
		{"one cycle", func(c *config) { c.cycles = 1 }},
		{"dead nodes past the first cylinder", func(c *config) { c.faults = 3 }},
		{"link faults in a window", func(c *config) { c.droprate, c.faultwindow = 1e-4, "500:3000" }},
		{"an open window", func(c *config) { c.faultwindow = "500" }},
		{"a single-height switch without dead nodes", func(c *config) { c.heights = 1 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := base
			tt.edit(&c)
			if err := c.validate(); err != nil {
				t.Errorf("validate() = %v, want nil", err)
			}
		})
	}
}

func TestConfigValidate_Invalid(t *testing.T) {
	tests := []struct {
		name string
		edit func(*config)
	}{
		{"heights not a power of two", func(c *config) { c.heights = 6 }},
		{"no angles", func(c *config) { c.angles = 0 }},
		// checked before any packet is injected, even with nothing to inject
		{"unknown pattern at zero load", func(c *config) { c.pattern, c.load = "bogus", 0 }},
		{"negative load", func(c *config) { c.load = -1 }},
		{"load past one packet a cycle", func(c *config) { c.load = 1.5 }},
		{"negative cycles", func(c *config) { c.cycles = -5 }},
		{"zero cycles", func(c *config) { c.cycles = 0 }},
		{"negative dead nodes", func(c *config) { c.faults = -1 }},
		{"dead nodes with no cylinder past the first", func(c *config) { c.heights, c.faults = 1, 1 }},
		{"drop rate past one", func(c *config) { c.droprate = 2 }},
		{"negative corrupt rate", func(c *config) { c.corruptrate = -1e-5 }},
		// checked even when no link fault rate is set
		{"unparsable window", func(c *config) { c.faultwindow = "bogus" }},
		{"window ends before it starts", func(c *config) { c.faultwindow = "3000:500" }},
		{"negative wall budget", func(c *config) { c.budgetWall = -1 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := base
			tt.edit(&c)
			if err := c.validate(); err == nil {
				t.Errorf("validate() = nil, want an error")
			}
		})
	}
}
