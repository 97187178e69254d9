//go:build !linux

package main

import "time"

// pacer falls back to time.Sleep off Linux, whose millisecond rounding
// shows as open-loop scheduling lag.
type pacer struct{}

func newPacer() (*pacer, error) { return &pacer{}, nil }

func (p *pacer) pause(ns int64) error { time.Sleep(time.Duration(ns)); return nil }

func (p *pacer) close() error { return nil }
