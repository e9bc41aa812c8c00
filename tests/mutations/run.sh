#!/bin/sh
# Mutation catalogue: each *.patch here plants one bug.  For every patch,
# copy src/ and tests/ to a fresh temporary directory, apply the patch there
# and run the tests named on its "Targets:" line; they must fail (pytest
# exit code 1).  Exits 1 if a planted bug survives its targets, a patch no
# longer applies or its targets do not run.  Run it after the suite passes
# unpatched: a target that fails without the bug proves nothing.  Patches
# apply with no fuzz: a hunk whose context no longer matches the code is
# reported as "could not be checked" instead of landing on other lines
# (a hunk may still apply at an offset).
#
# Run from the root of a checkout:  sh tests/mutations/run.sh
set -u
status=0
for patch in tests/mutations/*.patch; do
    copy=$(mktemp -d)
    cp -R src tests pyproject.toml "$copy"
    targets=$(sed -n 's/^Targets: //p' "$patch")
    if patch --quiet --fuzz=0 -p1 -d "$copy" < "$patch"; then
        (cd "$copy" && PYTHONPATH=src python -m pytest -q -p no:cacheprovider \
            --hypothesis-seed=0 $targets > pytest.log 2>&1)
        code=$?
    else
        code=apply
    fi
    case $code in
        1) echo "$patch: caught by $targets" ;;
        0) echo "$patch: survived $targets"; status=1 ;;
        *) echo "$patch: could not be checked ($code)"; cat "$copy/pytest.log" 2>/dev/null; status=1 ;;
    esac
    rm -rf "$copy"
done
exit $status
