package lib

var _ = Dead()
