#!/usr/bin/env bash
# The ccr-hopf command-line contract, one row per invocation:
#
#   <expected exit code> <timeout in seconds> <argv, as shell words>
#
# Each row runs twice, under PYTHONHASHSEED=1 and =2, inside `timeout`.
# Both runs must exit with the row's code and print byte-identical
# stdout, so no report may depend on dict or set hashing.  A row that
# exits 2 (bad input, or a budget refusing the work) must also print
# nothing on stdout and exactly one `ccr-hopf: ...` line on stderr.
# Exit 1 means a check failed, which some rows expect by design.  A row
# that exits 0 or 1 must print strict JSON (RFC 8259): no NaN or Infinity.
#
# Run from anywhere with `ccr-hopf` on PATH: bash .github/cli-contract.sh
# Every failing row is named; the script exits 1 if any row failed.
set -u
cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# reads one JSON document on stdin; exits 1 on NaN, Infinity or bad JSON
strict_json='import json, sys
def refuse(name): raise ValueError(name)
json.load(sys.stdin, parse_constant=refuse)'

rows=0 failed=0
while read -r want limit args; do
  case "$want" in "" | "#"*) continue ;; esac
  eval "argv=($args)"
  rows=$((rows + 1))
  why=""
  for h in 1 2; do
    code=0
    PYTHONHASHSEED=$h timeout "$limit" ccr-hopf "${argv[@]}" \
      < /dev/null > "$tmp/out$h" 2> "$tmp/err$h" || code=$?
    if [ "$code" -ne "$want" ]; then
      why="exit $code under PYTHONHASHSEED=$h"
    elif [ "$want" -eq 2 ] && { [ -s "$tmp/out$h" ] || [ "$(wc -l < "$tmp/err$h")" -ne 1 ] ||
                                ! grep -q '^ccr-hopf: ' "$tmp/err$h"; }; then
      why="exit 2 without exactly one 'ccr-hopf:' stderr line and empty stdout"
    elif [ "$want" -ne 2 ] && ! python3 -c "$strict_json" < "$tmp/out$h" 2> /dev/null; then
      why="stdout is not strict JSON under PYTHONHASHSEED=$h"
    fi
    [ -n "$why" ] && break
  done
  if [ -z "$why" ] && ! cmp -s "$tmp/out1" "$tmp/out2"; then
    why="stdout differs between PYTHONHASHSEED=1 and 2"
  fi
  if [ -n "$why" ]; then
    failed=$((failed + 1))
    echo "FAIL ($why): $want $limit $args"
    tail -n 5 "$tmp/err$h"
  fi
done <<'ROWS'
# the acceptance suite, as the installed console script runs it
0  60 selftest --seed 42
0  60 normalize "pi(0)*phi(0)"
# the collapsed deformed sweep fails coassociativity and the antipode by
# design; its residuals pass through the per-presentation rewrite tables
1  60 hopf-check --variant deformed-collapsed --flavor deformed --checks coassociativity,counit,antipode --degree 2
# coproducts are reduced from memoized prefixes, cut where a pair has a rule
0  60 coproduct "pi(0)^3*phi(0)^3*pi(1)*phi(0)" --flavor deformed --variant deformed
# coefficients in lowest terms, mixing den > 1 (-1/5, 2/5, 1/3) with den = 1
0  60 coproduct "(2+i)^-1*pi(0)^2*phi(0) + 1/3*phi(1)*pi(0)" --flavor deformed --variant deformed
# numeric q and c make kappa and s binary fractions: denominators near 2^100
0  60 coproduct "pi(0)^2*phi(0)^2*pi(1)*phi(0)" --flavor deformed --variant deformed-strict --q 1.3 --c 0.7
# coproducts grown one generator at a time: through I and Kinv at numeric
# q and c, and through the collapsed K piece, both under a rational gram
0  60 coproduct "Kinv*phi(0)^2*pi(1)^2*I" --flavor deformed --variant deformed-strict --q 1.3 --c 0.7 --gram tests/golden/gram2.json
0  60 coproduct "phi(0)^3*pi(0)^2*phi(1)" --flavor deformed --variant deformed-collapsed --gram tests/golden/gram2.json
1  60 hopf-check --variant deformed-strict --flavor deformed --degree 4
# the relation check reads its relations off the rewrite rules; the
# deformed coproduct fails the commutations by design
1  60 hopf-check --checks respects-relations --variant deformed-strict --flavor deformed --modes 2
# the relation check's Delta, eps and S residuals at numeric q and c under
# a rational gram, and through the collapsed K piece
1  60 hopf-check --checks respects-relations --variant deformed-strict --flavor deformed --modes 2 --gram tests/golden/gram2.json --q 1.5 --c 0.8
1  60 hopf-check --checks respects-relations --variant deformed-collapsed --flavor deformed --modes 1
# reduced tensor products are summed per pair of slot-0 words: a failing
# collapsed run and a passing numeric-q/c run, both under a rational gram
1  60 hopf-check --checks multiplicativity,antipode --flavor deformed --variant deformed-collapsed --degree 3 --gram tests/golden/gram2.json
0  60 hopf-check --checks multiplicativity,antipode,coassociativity --variant deformed-strict --q 1.3 --c 0.7 --degree 3 --seed 5 --gram tests/golden/gram2.json
# numeric q and c on the collapsed sweep: binary-fraction residual
# coefficients, reduced through the Gaussian-rational gcd, and 54 witnesses
1  60 hopf-check --checks antipode,coassociativity,counit --flavor deformed --variant deformed-collapsed --q 1.5 --c 0.8 --degree 2
# numeric q and c outside hopf-check and coproduct: normal forms, a
# commutator, a basis change and both antipodes; the typed kappa stays a
# free symbol next to the numeric one
0  60 normalize "pi(0)^3*phi(0)^3" --variant deformed --q 1.5 --c 0.8
0  60 normalize "pi(0)*phi(0) - phi(0)*pi(0) + i*kappa*I" --variant deformed --q 1.5 --c 0.8
0  60 normalize "K*pi(0)^2*phi(1)*Kinv*phi(0)" --variant deformed-collapsed --q 1.3 --c 0.7 --gram tests/golden/gram2.json
0  60 normalize "am(0)^3*ap(0)^3" --basis ladder --variant deformed-strict --q 1.5 --c 0.8
0  60 commutator "pi(0)^2" "phi(0)^2" --variant deformed-collapsed --q 1.5 --c 0.8
0  60 convert "pi(0)^2*phi(0)^2" --to ladder --variant deformed-strict --q 1.3 --c 0.7
0  60 antipode "phi(0)^2*pi(0)*K" --flavor deformed --variant deformed-strict --q 1.5 --c 0.8
0  60 antipode "phi(0)*pi(0)^2*I" --variant deformed-collapsed --q 1.3 --c 0.7
# a typed denominator that vanishes at the numeric point (s = 1 at q = c = 1)
2  20 normalize "(s-1)^-1*phi(0)" --variant deformed --q 1 --c 1
# a zero scalar raised to a negative power, a zero denominator in the
# expression, and one in a gram entry
2  20 normalize "(0)^-1"
2  20 normalize "3/0*phi(0)"
2  20 normalize "phi(0)" --gram tests/golden/gram_bad_ratio.json
# letters of the other basis and collapsed K letters fold piece by piece
0  60 convert "(2/3+kappa*(1+s)^-1)*am(0)^6*ap(0)^6" --to phi-pi --variant deformed-strict
0  60 normalize "(5/7*(1+s)^-1)*I*K*pi(2)*pi(2)*Kinv*phi(1)*K + s*Kinv*pi(0)*K*phi(0)" --variant deformed-collapsed
# plain words that share suffixes go through one memoized suffix fold
0  60 normalize "(1+s)^-1*pi(1)*pi(0)*phi(1)*phi(0) + pi(0)*phi(1)*phi(0) + 2*phi(1)*pi(0)*phi(1)*phi(0) + pi(1)*pi(0)*phi(0)^2 + pi(0)^3*phi(0)^2" --gram tests/golden/gram2.json
# time tripwires: expanding the pieces first built 2^24 free words here; a
# letter is inserted in one pass, a run of equal letters at a time; the
# largest sweep the tests run (7683 free coproduct terms)
0  20 convert "am(0)^12*ap(0)^12" --to phi-pi
0  10 normalize "pi(0)^200*phi(0)^200"
0  30 hopf-check --modes 1 --degree 8
# the slowest sweep the budget admits (4099 free coproduct terms): it fails
# coassociativity, the antipode and cocommutativity, and every check hands
# over reduced sides, so each residual is one subtraction
1  60 hopf-check --flavor deformed --variant deformed-collapsed --modes 2 --degree 5
# a cutoff that admits no quantum, and vectors whose products overflow a
# float, are bad input: they would print inf, NaN or Infinity as a failure
2  20 fock trend --nmax 0
2  20 measure bochner --v 1e308,1e308
2  20 measure eta --v 1e308,1e308 --u 1,1
2  20 fock transfer --v 1e308,1e308
# a tiny scale makes K = 1e150 I: the cocycle, a translated test function
# and det(C) overflow a float, which ended in tracebacks or numpy warnings
2  20 measure cocycle --scale 1e-150
2  20 measure weyl --scale 1e-150 --count 5
2  20 measure eta --scale 1e-150
# numeric commands load fock and measure on first use; the squeezed number
# operator takes the real symmetric eigen-solver; expr_matrix caches word
# products and restricted_norm reads the safe columns in CSC order
0  60 fock spectrum --d 1 --nmax 4
0  60 fock spectrum --d 2 --nmax 30 --family uniform --r 0.3
0  60 fock transfer --d 2 --nmax 8 --seed 5
# the per-mode matrices, a three-mode squeezed spectrum, and the ladders
# and transfer matrices weighted through a gram
0  60 fock matrices --d 2 --nmax 3
# fock matrices prints each mode's phi and pi densely, 2 d dim^2 entries:
# the dense budget refuses from d and nmax before any basis is built, and
# at nmax = 0 the modes share one ladder stack, so 19999 of them take
# seconds where a d x d identity of 3.2 GB was built
2  20 fock matrices --d 120 --nmax 1
2  20 fock matrices --d 1 --nmax 19999
0  20 fock matrices --d 19999 --nmax 0
# spectrum, genfun and transfer build the space's (dim, d) occupation
# table: its budget refuses 20000 states over 19999 modes, which the state
# budget admits, before a table of 3.2 GB is built
2  20 fock spectrum --d 19999 --nmax 1
2  20 fock genfun --d 19999 --nmax 1 --v "$(printf '1,%.0s' {1..19998})1"
2  20 fock transfer --d 19999 --nmax 1
# genfun and transfer read a given vector before they build the space, so
# one whose length is not d is refused before 19999 modes are built
2  20 fock genfun --d 19999 --nmax 1 --v 1
2  20 fock genfun --d 19999 --nmax 0 --v 1
2  20 fock transfer --d 19999 --nmax 0 --v 1
0  60 fock spectrum --d 3 --nmax 12 --family summable
# a cutoff of zero quanta: the vacuum alone, whose reported occupancy is 0.0
0  60 fock spectrum --d 2 --nmax 0 --family uniform
# v = 0: the Krylov run stops at beta = 0 and the coherent state's Poisson
# tail has mean 0; and a spectrum asked for no eigenvalue
0  60 fock genfun --v 0
0  60 fock spectrum --k 0
0  60 fock genfun --d 2 --v 0.3,0.4 --gram tests/golden/gram2.json
0  60 fock transfer --gram tests/golden/gram2.json
# a gram whose mirrored entries differ by 1e-6 relative is not Hermitian
# to the stated 1e-12, and both numeric layers refuse it as bad input
2  20 fock transfer --gram tests/golden/gram_asymmetric.json
2  20 measure eta --gram tests/golden/gram_asymmetric.json
# under a gram P(v) shifts by u_v = G v and is weighted by the cocycle of
# that same shift, so the cocycle, the density ratio and eta's limit agree
# to rounding (weighted by C v, the cocycle row exited 1 with residual 0.99)
0  60 measure cocycle --gram tests/golden/gram2.json
0  60 measure eta --gram tests/golden/gram2.json
0  60 measure eta
0  60 measure weyl --d 2 --seed 5 --count 80
# commands that read their tolerance, verdict or Gaussian model from fock
# or measure, where the selftest reads them too
0  60 fock genfun --v 0.5
0  60 fock trend --nmax 12
0  60 measure cocycle
0  60 measure bochner
# Monte-Carlo sample counts around 65,536-row blocks: four blocks and a
# ragged tail, exactly one block, a scaled model over two blocks and one
# row, and a draw the size of the benchmark's largest
0  60 measure bochner --d 3 --samples 200003 --seed 9
0  60 measure bochner --d 1 --samples 65536 --v 0.7
0  60 measure bochner --scale 0.8 --d 2 --samples 131073
0  60 measure bochner --d 3 --samples 1000000
0  60 measure pd-check
# exact identities on large values: the cocycle, density-ratio, Weyl and
# transfer residuals are judged in units of the values they compare, so
# rounding on a large value is no failure (each of these exited 1 on an
# absolute bound), and the selftest passes at a seed that failed that way
0  60 measure cocycle --scale 0.5 --samples 2000
0  60 fock transfer --v 300,400 --w 100,200
0  60 fock transfer --v 300,400 --w 400,-300
0  60 measure weyl --scale 0.25 --count 500
0  60 selftest --seed 5
# budgets refuse the work before it starts: an exponent over the parser's
# limit, a coherent state far beyond the cutoff, the Python-loop sweeps,
# a test function whose translate would hold about 1e6 monomials, Weyl
# counts times worst-case monomials, the Hopf sweep and trial budgets
2  20 normalize "phi(0)^99999999999"
2  20 fock genfun --v 1e5
# a coherent state past the cutoff names the least cutoff that holds it,
# found by bisection; the dense budget leaves d < 1 to the space to refuse
2  20 fock genfun --v 6 --nmax 10
2  20 fock matrices --d 0
# the vacuum's Krylov space of nmax + 1 states over the dense eigen-solver budget
2  20 fock genfun --v 1 --nmax 2000
# the trend is the closed form sum_j sinh^2(r_j) and builds no Fock
# space, but it refuses what building one would: a basis over the state
# budget (d = 8, nmax = 30) and a mode count below 1
2  20 fock trend --dvalues 1,2,8 --nmax 30
2  20 fock trend --dvalues 0,1
# the budget is decided factor by factor: the exact comb(8000000, 4000000)
# would take minutes to compute before the refusal
2  20 fock spectrum --d 4000000 --nmax 4000000
# summable squeezing at r = 100: the dense solver's rounding bound
# (3.4e73) passes the 1e-8 nonnegativity tolerance, so no verdict is given
2  20 fock spectrum --family summable --d 2 --r 100
2  20 fock trend --dvalues 4000000,1 --nmax 4000000
# the reference walker's step budget: this word walked for 20 s without it
2  20 normalize "pi(0)^8*phi(0)^8" --schedule rightmost
2  20 measure cocycle --samples 1000000000
2  20 measure weyl --count 100000000
2  20 measure pd-check --count 100000000
2  20 measure weyl --d 22 --count 1
2  20 measure weyl --d 9 --count 1
2  20 measure weyl --d 10 --count 10000
2  20 measure weyl --d 8 --count 10
# the most one-mode Weyl points the monomial budget admits
0  60 measure weyl --d 1 --count 20000
2  20 hopf-check --modes 1 --degree 12
2  20 hopf-check --checks multiplicativity --modes 1 --degree 16
# letters and degree each within the word budget: their candidate words,
# comb(21 + 7, 7) = 1184040, are counted exactly and named
2  20 hopf-check --modes 10 --degree 7
# a degree-0 sweep builds no word, yet its mode window past the gram is refused
2  20 hopf-check --checks counit,antipode,coassociativity,cocommutativity --degree 0 --modes 3 --gram tests/golden/gram2.json
# a check named twice would run and report twice
2  20 hopf-check --checks counit,counit
# an empty check list would run the whole default set
2  20 hopf-check --checks ""
# a coefficient with more digits than the interpreter prints, and one that
# overflows a float, are refused rather than raised
2 120 normalize "pi(0)^300*phi(0)^300" --variant deformed --q 1.5 --c 0.8
2  20 normalize "123456^1000*phi(0)"
2  20 normalize "10^400*phi(0)" --numeric
# a number and a mode index with more digits than the interpreter converts
2  20 normalize "$(printf '1%.0s' {1..5000})*phi(0)"
2  20 normalize "phi($(printf '1%.0s' {1..5000}))"
# the argv fuzz's breaches: a 400-digit mode count is refused by the mode
# budgets before any array is built (numpy refused np.eye(d) with a
# traceback, and at nmax = 0 the tables were built d entries long), and a
# word budget that the letters alone pass names only the degree and modes
2  20 measure weyl --d "$(printf '9%.0s' {1..400})" --count 1
2  20 fock spectrum --d "$(printf '9%.0s' {1..400})" --nmax 0
2  20 hopf-check --modes "$(printf '9%.0s' {1..400})" --degree 12
# sizes at the interpreter's 4300-digit limit: each budget compares the
# given size, and no refusal prints 2*modes + 3, 2*degree or samples*d,
# which have 4301 digits and raised ValueError when formatted
2  20 hopf-check --modes "$(printf '9%.0s' {1..4300})" --degree 2
2  20 hopf-check --checks respects-relations --modes "$(printf '9%.0s' {1..4300})"
2  20 hopf-check --checks multiplicativity --modes "$(printf '9%.0s' {1..4300})"
2  20 hopf-check --checks multiplicativity --degree "$(printf '9%.0s' {1..4300})"
2  20 measure bochner --samples "$(printf '9%.0s' {1..4300})"
# a scale whose reciprocal overflows is refused before K = I/c warns
2  20 measure cocycle --scale 1e-320
# a covariance factor read from a file, and the deformation constant's
# series branch at q = 1
0  60 measure cocycle --kmat tests/golden/gram2.json
0  60 normalize "pi(0)*phi(0) + K" --variant deformed --q 1 --c 0.5
# a product or power of sums is multiplied out in the free algebra, and a
# step of more than 4096 term pairs is refused before it is built: the
# ^20 grew to 7.7 GB, and the coproduct at ^14 ran past 120 s.  The edge,
# 2048 terms times 2 at the last step, runs
2  20 normalize "(phi(0)*pi(1)+pi(0)*phi(1))^20"
2  20 coproduct "(phi(0)+pi(0))^14"
2  20 commutator "(phi(0)+pi(0))^12" "(phi(1)+pi(1))^12"
0  60 normalize "(phi(0)+pi(0))^12"
ROWS

echo "$((rows - failed)) of $rows contract rows passed"
[ "$failed" -eq 0 ]
