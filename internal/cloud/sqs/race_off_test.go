//go:build !race

package sqs

const raceEnabled = false
