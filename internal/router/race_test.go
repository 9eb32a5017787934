//go:build race

package router

func init() { raceEnabled = true }
