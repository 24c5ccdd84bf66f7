//go:build !linux

package service

import (
	"os"
	"time"
)

// accessTime reports no access time off Linux.
func accessTime(os.FileInfo) (time.Time, bool) { return time.Time{}, false }
