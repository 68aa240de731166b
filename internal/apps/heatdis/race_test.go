//go:build race

package heatdis

func init() { raceEnabled = true }
