package user

import "lib"

var config = lib.Config{Set: 1}
