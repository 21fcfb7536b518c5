//go:build race

package hypart_test

func init() { raceEnabled = true }
