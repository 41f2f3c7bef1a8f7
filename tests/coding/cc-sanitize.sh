#!/bin/sh
# $CC for `make kernel-sanitize`: builds _viterbi.c under ASan + UBSan.
exec cc -fsanitize=address,undefined -fno-sanitize-recover=undefined -g "$@"
