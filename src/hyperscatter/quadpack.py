"""QUADPACK's globally adaptive quadrature with extrapolation, QAGS.

A port of QUADPACK's dqagse (Piessens, de Doncker-Kapenga, Ueberhuber and
Kahaner, QUADPACK, Springer 1983, 3.3.2) with its 21-point Gauss-Kronrod
rule dqk21, the error-list ordering dqpsrt and Wynn's epsilon algorithm
dqelg, operation for operation, at the tolerances and interval limit the
resolvent uses: epsabs 1e-13, epsrel 1e-10, 200 intervals.  The interval
of largest error is bisected until the errors sum to within the
tolerance; where the smallest intervals keep the largest errors (an end
or interior singularity of the integrand), the sequence of integral
sums over ever finer partitions is extrapolated by the epsilon table.

The integrand is complex and takes an array: each rule calls it once, on
its 21 nodes, and the rule sums the values it returns in dqk21's order.
QUADPACK's tests read |.| of the complex sums, and the divergence test's
ratio of the two integral estimates its real part; so on a real integrand
every interval, sum and error estimate equals scipy's ``quad`` (which calls
dqagse) bit for bit.
"""

from __future__ import annotations

import sys

import numpy as np

from .errors import QuadratureError

# dqk21's nodes in (0, 1] (the 10-point Gauss nodes at the odd places),
# then the Kronrod weights at them and the Gauss weights
_XGK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
        0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
        0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
        0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
        0.294392862701460198131126603103866, 0.148874338981631210884826001129720, 0.0)
_WGK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
        0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
        0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
        0.123491976262065851077208100145342, 0.134709217311473325928054001771707,
        0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
        0.149445554002916905664936468389821)
_WG = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
       0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)
# dqk21 sums the Gauss pairs first, then the others
_PAIRS = (1, 3, 5, 7, 9, 0, 2, 4, 6, 8)
_ABSCISSAE = np.array(_XGK[:10])

EPSABS, EPSREL = 1e-13, 1e-10
LIMIT = 200
_LIMEXP = 50  # the epsilon table keeps at most 50 sums
_EPMACH = sys.float_info.epsilon
_UFLOW = sys.float_info.min
_OFLOW = sys.float_info.max

# what each of dqagse's failure codes means
_FAILURES = {
    1: f"error estimate {{:.2e}} after {LIMIT} intervals",
    2: "roundoff error, error estimate {:.2e}",
    3: "bad integrand behaviour inside the interval, error estimate {:.2e}",
    4: "roundoff error in the extrapolation table, error estimate {:.2e}",
    5: "the integral is probably divergent, error estimate {:.2e}",
}


def _kronrod(f, a, b):
    """dqk21 on [a, b]: (integral, error estimate, integral of |f|, integral
    of |f - mean|).  f is called once, on the array of the 21 nodes: the
    centre, then the ten nodes below it and the ten above, nearest the ends
    first."""
    centre, half = 0.5 * (a + b), 0.5 * (b - a)
    absc = half * _ABSCISSAE
    values = np.asarray(f(np.concatenate(([centre], centre - absc, centre + absc))),
                        dtype=complex).tolist()
    fc = values[0]
    resg = 0j
    resk = _WGK[10] * fc
    resabs = abs(resk)
    for j in _PAIRS:
        f1, f2 = values[1 + j], values[11 + j]
        fsum = f1 + f2
        if j % 2:
            resg += _WG[j // 2] * fsum
        resk += _WGK[j] * fsum
        resabs += _WGK[j] * (abs(f1) + abs(f2))
    reskh = resk * 0.5
    resasc = _WGK[10] * abs(fc - reskh)
    for w, f1, f2 in zip(_WGK, values[1:11], values[11:]):
        resasc += w * (abs(f1 - reskh) + abs(f2 - reskh))
    resabs *= abs(half)
    resasc *= abs(half)
    abserr = abs((resk - resg) * half)
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
    if resabs > _UFLOW / (50.0 * _EPMACH):
        abserr = max(_EPMACH * 50.0 * resabs, abserr)
    return resk * half, abserr, resabs, resasc


def _reorder(elist, iord, maxerr, nrmax, last):
    """dqpsrt: keep the first ranks of ``iord`` (interval indices, largest
    error first; fewer as fewer bisections remain) in order after interval
    ``maxerr`` was bisected into itself and the newest interval ``last - 1``.
    Returns (maxerr, its error, nrmax): the interval of rank nrmax (from 1)
    is bisected next."""
    if last <= 2:
        iord[0], iord[1] = 0, 1
    else:
        errmax = elist[maxerr]
        # a bisection that raised the error moves maxerr up past nrmax
        for _ in range(nrmax - 1):
            above = iord[nrmax - 2]
            if errmax <= elist[above]:
                break
            iord[nrmax - 1] = above
            nrmax -= 1
        top = LIMIT + 3 - last if last > LIMIT // 2 + 2 else last
        errmin = elist[last - 1]
        # insert maxerr top-down, then the newest interval bottom-up
        for i in range(nrmax + 1, top):
            below = iord[i - 1]
            if errmax >= elist[below]:
                iord[i - 2] = maxerr
                k = top - 1
                for _ in range(i, top):
                    below = iord[k - 1]
                    if errmin < elist[below]:
                        break
                    iord[k] = below
                    k -= 1
                else:
                    k = i - 1
                iord[k] = last - 1
                break
            iord[i - 2] = below
        else:
            iord[top - 2] = maxerr
            iord[top - 1] = last - 1
    maxerr = iord[nrmax - 1]
    return maxerr, elist[maxerr], nrmax


def _epsilon(n, table, last3, nres):
    """dqelg: extend Wynn's epsilon table, whose n-th entry (from 1) is the
    newest integral sum, and read the best extrapolation off it.  Returns
    (n, extrapolated value, its error estimate, nres), keeping in ``last3``
    the last three values after the first three."""
    nres += 1
    abserr = _OFLOW
    result = table[n - 1]
    if n < 3:
        return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres
    table[n + 1] = table[n - 1]
    newelm = (n - 1) // 2
    table[n - 1] = _OFLOW
    num = k1 = n
    for i in range(1, newelm + 1):
        e0, e1, e2 = table[k1 - 3], table[k1 - 2], table[k1 + 1]
        e1abs = abs(e1)
        delta2 = e2 - e1
        err2 = abs(delta2)
        tol2 = max(abs(e2), e1abs) * _EPMACH
        delta3 = e1 - e0
        err3 = abs(delta3)
        tol3 = max(e1abs, abs(e0)) * _EPMACH
        if err2 <= tol2 and err3 <= tol3:
            # e0, e1 and e2 agree to machine accuracy: converged
            return n, e2, max(err2 + err3, 5.0 * _EPMACH * abs(e2)), nres
        e3 = table[k1 - 1]
        table[k1 - 1] = e1
        delta1 = e1 - e3
        err1 = abs(delta1)
        tol1 = max(e1abs, abs(e3)) * _EPMACH
        if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
            n = i + i - 1  # two entries too close: drop the table's tail
            break
        ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
        if not abs(ss * e1) > 1e-4:
            n = i + i - 1  # irregular behaviour: drop the table's tail
            break
        res = e1 + 1.0 / ss
        table[k1 - 1] = res
        k1 -= 2
        error = err2 + abs(res - e2) + err3
        if error <= abserr:
            abserr, result = error, res
    # shift the table
    if n == _LIMEXP:
        n = 2 * (_LIMEXP // 2) - 1
    ib = 1 if num % 2 else 2
    for _ in range(newelm + 1):
        table[ib - 1] = table[ib + 1]
        ib += 2
    if num != n:
        table[:n] = table[num - n:num]
    if nres < 4:
        last3[nres - 1] = result
        abserr = _OFLOW
    else:
        abserr = abs(result - last3[2]) + abs(result - last3[1]) + abs(result - last3[0])
        last3[:] = last3[1], last3[2], result
    return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres


def qags(f, a, b):
    """dqagse on [a, b], a < b: (integral, error estimate, ier, intervals).

    ier is QUADPACK's: 0 where the estimate meets max(epsabs, epsrel
    |integral|), 1 where 200 intervals do not, 2 on roundoff, 3 on bad
    integrand behaviour at a point, 4 on roundoff in the extrapolation
    and 5 for an integral that looks divergent.  f maps an array of nodes
    to the array of its values, and is called 2 intervals - 1 times, once
    per rule, on 42 intervals - 21 nodes in all.
    """
    result, abserr, defabs, resasc = _kronrod(f, a, b)
    dres = abs(result)
    errbnd = max(EPSABS, EPSREL * dres)
    # roundoff where the error is at the floats' level yet above the bound;
    # one interval is enough unless its error is the whole spread of f
    ier = 2 if abserr <= 100.0 * _EPMACH * defabs and abserr > errbnd else 0
    if ier or (abserr <= errbnd and abserr != resasc) or abserr == 0.0:
        return result, abserr, ier, 1
    alist, blist, rlist, elist = [a], [b], [result], [abserr]
    iord = [0] * LIMIT
    table = [0j] * (_LIMEXP + 2)  # the epsilon table
    table[0] = result
    last3 = [0j] * 3
    errmax, maxerr, nrmax = abserr, 0, 1
    area, errsum = result, abserr
    abserr = _OFLOW
    nres, numrl2, ktmin = 0, 2, 0
    extrap = noext = False
    iroff1 = iroff2 = iroff3 = ierro = 0
    ksgn = 1 if dres >= (1.0 - 50.0 * _EPMACH) * defabs else -1
    small = erlarg = ertest = correc = 0.0
    for last in range(2, LIMIT + 1):
        # bisect the interval of the nrmax-th largest error
        a1, b2 = alist[maxerr], blist[maxerr]
        a2 = b1 = 0.5 * (a1 + b2)
        erlast = errmax
        area1, error1, _, resasc1 = _kronrod(f, a1, b1)
        area2, error2, _, resasc2 = _kronrod(f, a2, b2)
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        # count bisections that leave the integral and its error as they
        # were (roundoff), or raise the error late, unless a half's error is
        # its whole spread
        if resasc1 != error1 and resasc2 != error2:
            if abs(rlist[maxerr] - area12) <= 1e-5 * abs(area12) and erro12 >= 0.99 * errmax:
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        errbnd = max(EPSABS, EPSREL * abs(area))
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        if last == LIMIT:
            ier = 1
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * _EPMACH) * (abs(a2) + 1000.0 * _UFLOW):
            ier = 4
        # the half of larger error keeps maxerr's place
        if error2 > error1:
            alist[maxerr] = a2
            alist.append(a1)
            blist.append(b1)
            rlist[maxerr] = area2
            rlist.append(area1)
            elist[maxerr] = error2
            elist.append(error1)
        else:
            alist.append(a2)
            blist[maxerr] = b1
            blist.append(b2)
            rlist[maxerr] = area1
            rlist.append(area2)
            elist[maxerr] = error1
            elist.append(error2)
        maxerr, errmax, nrmax = _reorder(elist, iord, maxerr, nrmax, last)
        summed = errsum <= errbnd
        if summed or ier:
            break
        if last == 2:
            small = abs(b - a) * 0.375
            erlarg = errsum
            ertest = errbnd
            table[1] = area
            continue
        if noext:
            continue
        erlarg -= erlast
        if abs(b1 - a1) > small:
            erlarg += erro12
        if not extrap:
            # extrapolate only once the smallest interval is next
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap = True
            nrmax = 2
        if ierro != 3 and erlarg > ertest:
            # bisect the larger intervals of large error first
            top = LIMIT + 3 - last if last > 2 + LIMIT // 2 else last
            while nrmax <= top:
                maxerr = iord[nrmax - 1]
                errmax = elist[maxerr]
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    break
                nrmax += 1
            if nrmax <= top:
                continue
        numrl2 += 1
        table[numrl2 - 1] = area
        numrl2, reseps, abseps, nres = _epsilon(numrl2, table, last3, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 1e-3 * errsum:
            ier = 5
        if abseps < abserr:
            ktmin = 0
            abserr, result = abseps, reseps
            correc = erlarg
            ertest = max(EPSABS, EPSREL * abs(reseps))
            if abserr <= ertest:
                break
        # go on bisecting the smallest interval
        if numrl2 == 1:
            noext = True
        if ier == 5:
            break
        maxerr = iord[0]
        errmax = elist[maxerr]
        nrmax = 1
        extrap = False
        small *= 0.5
        erlarg = errsum
    # the summed or the extrapolated integral, whichever is trusted more,
    # and a test for divergence where it is the extrapolated one
    summed = summed or abserr == _OFLOW
    tested = not summed
    if tested and ier + ierro:
        if ierro == 3:
            abserr += correc
        if ier == 0:
            ier = 3
        if result != 0.0 and area != 0.0:
            summed = abserr / abs(result) > errsum / abs(area)
        else:
            summed = abserr > errsum
            tested = area != 0.0
    if summed:
        result, abserr = sum(rlist), errsum
    elif tested and (ksgn == 1 or max(abs(result), abs(area)) > defabs * 0.01):
        if area == 0.0 or not 0.01 <= (result / area).real <= 100.0 or errsum > abs(area):
            ier = 6
    return result, abserr, ier - 1 if ier > 2 else ier, last


def quad(f, a, b):
    """The integral of the complex f over [a, b], a < b, by qags; f maps an
    array of nodes to the array of its values.  QuadratureError where qags
    reports a failure."""
    value, abserr, ier, _ = qags(f, a, b)
    if ier:
        raise QuadratureError("quadrature did not converge: " + _FAILURES[ier].format(abserr))
    return value
