//go:build !race

package sdb

const raceEnabled = false
