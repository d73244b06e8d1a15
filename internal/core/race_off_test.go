//go:build !race

package core

const RaceEnabled = false
