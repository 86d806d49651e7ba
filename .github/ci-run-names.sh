#!/usr/bin/env bash
# Checks that every test a CI step names exists: for each `go test` line of
# the workflow file given (default .github/workflows/ci.yml) with a -run or
# -bench pattern, every |-separated alternative must match at least one
# test, benchmark or fuzz target that `go test -list` reports for the line's
# packages and build tags. A subtest path is checked by its top-level name.
# A deleted or renamed test otherwise leaves its step running nothing, green.
# -run=XXX, the benchmark lines' "run no test", is the one pattern exempt.
#
#   bash .github/ci-run-names.sh [workflow.yml]
set -euo pipefail
wf=${1:-.github/workflows/ci.yml}
declare -A listed # "tags|pkgs" -> the names go test -list reports
missing=0
while IFS= read -r line; do
	cmd=${line#*go test }
	cmd=${cmd%%&&*}
	cmd=${cmd%%;*}
	tags="" pkgs=() pats=()
	read -ra toks <<<"$(xargs printf '%s\n' <<<"$cmd" | tr '\n' ' ')"
	for ((i = 0; i < ${#toks[@]}; i++)); do
		tok=${toks[i]}
		case $tok in
		-run=* | -bench=* | -tags=*) flag=${tok%%=*} val=${tok#*=} ;;
		-run | -bench | -tags) flag=$tok val=${toks[++i]} ;;
		.*) pkgs+=("$tok"); continue ;;
		*) continue ;;
		esac
		case $flag in
		-tags) tags=$val ;;
		*) [[ $val == XXX ]] || pats+=("$val") ;;
		esac
	done
	((${#pats[@]})) || continue
	key="$tags|${pkgs[*]}"
	if [[ -z ${listed[$key]+set} ]]; then
		listed[$key]=$(go test ${tags:+-tags "$tags"} -list . "${pkgs[@]}" | grep -E '^(Test|Benchmark|Fuzz|Example)' || true)
	fi
	for pat in "${pats[@]}"; do
		IFS='|' read -ra alts <<<"$pat"
		for alt in "${alts[@]}"; do
			top=${alt%%/*}
			if ! grep -qE -- "$top" <<<"${listed[$key]}"; then
				echo "$wf: '$alt' matches no test in ${pkgs[*]}${tags:+ (tags $tags)}: $line"
				missing=1
			fi
		done
	done
done < <(grep -E 'go test .*-(run|bench)[= ]' "$wf")
exit $missing
