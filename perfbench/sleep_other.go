//go:build !linux

package main

import "time"

func preciseSleep(d time.Duration) { time.Sleep(d) }

func lockSender() func() { return func() {} }
