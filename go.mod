module github.com/hfast-sim/hfast

go 1.23
