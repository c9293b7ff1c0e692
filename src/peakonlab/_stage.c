/* One RK4 stage of peakonlab on n characteristic nodes, and the RK4 step around it: a
 * nonlinear stage as its convolutions and one derivative loop, a linearized one (no
 * convolutions) as that loop without the nonlinear terms.  Also the text of a state CSV
 * (state_csv), which every trajectory mode writes.
 *
 * Every float operation is the one, and in the order, of the NumPy formulas the
 * tests keep as the oracle (tests/test_nonlinear.py::_reference_stage for a nonlinear
 * stage, linear._linear_rhs for a linear one, state.rk4 for a step), so the results are
 * bit for bit theirs.  That holds only when the compiler neither fuses a multiply and an
 * add (build with -ffp-contract=off) nor reassociates (no -ffast-math).  A stage reads
 * only its workspace, whose cosh/sinh table NumPy fills before each stage (only its X and
 * X - pi rows for a linear stage; its SIMD cosh and sinh do not round as libm does);
 * a step also reads the state it starts from and writes the one it ends at.
 */

#include <stdint.h>
#include <stdio.h>
#include <string.h>

/* A workspace: what stays fixed for its n nodes, its scratch, and the step that
 * rk4_start set.  Only rk4_start and rk4_stage write through its pointers.  Python's
 * convolution.StageWorkspace is this struct: its _fields_ repeat these members in order. */
typedef struct {
    long n;
    const double *cosh, *sinh; /* 3 x n each, of the args X, X - pi, pi + X */
    double *rows; /* W, V, U, J, n each */
    const double *half, *dx2_12; /* panel weights of f and f', n - 1 each */
    const double *a, *b, *c; /* f[k-1], f[k], f[k+1] weights of f'[k], n - 2 each */
    double *QP, *k, *acc; /* a stage's (Q, P), 2 x n, and derivative and the step's sum, 5 x n */
    double *args; /* 3 x n, the table's arguments */
    double a0, b0, c0, a1, b1, c1; /* one-sided weights at the first and the last node */
    double half_m, m, M;
    const double *Z; /* the step from Z, 5 x n, to out */
    double *out;
    double pmv, dt6; /* pmv as rk4_start was given it */
    double h[3]; /* the next stage's input is Z + h[j] k after stage j: dt/2, dt/2, dt */
    int linear; /* nonzero: the linearized flow, which reads only the X and X - pi table rows */
} stage;

static double density(const double *V, const double *U, const double *J, long k)
{
    return (V[k] * V[k] + U[k] * 0.5 * U[k]) * J[k]; /* g = (V^2 + U^2/2) J */
}

/* QP = (Q, P), 2 x n.  The running Hermite integrals of (cosh, sinh)(X) g from
 * the first node are kept in Q and P until the second loop turns them into the
 * convolutions. */
static void stage_convolutions(const stage *w, double *restrict QP)
{
    const long n = w->n;
    const double *V = w->rows + n, *U = w->rows + 2 * n, *J = w->rows + 3 * n;
    double *Q = QP, *P = QP + n;
    const double *ch = w->cosh, *sh = w->sinh;
    double gm = 0.0, g = density(V, U, J, 0), gn = density(V, U, J, 1);
    double fc_left = 0.0, fs_left = 0.0, dc_left = 0.0, ds_left = 0.0, low_c = 0.0, low_s = 0.0;
    for (long k = 0; k < n; k++) {
        double gp; /* three-point derivative of g */
        if (k == 0)
            gp = (w->a0 * g + w->b0 * gn) + w->c0 * density(V, U, J, 2);
        else if (k == n - 1)
            gp = (w->a1 * density(V, U, J, n - 3) + w->b1 * gm) + w->c1 * g;
        else
            gp = (g * w->b[k - 1] - gm * w->a[k - 1]) + gn * w->c[k - 1];
        double fc = ch[k] * g, fs = sh[k] * g; /* (cosh, sinh)(X) g and their s-derivatives */
        double dc = sh[k] * J[k] * g + ch[k] * gp, ds = ch[k] * J[k] * g + sh[k] * gp;
        if (k > 0) {
            double pc = (fc_left + fc) * w->half[k - 1] + (dc_left - dc) * w->dx2_12[k - 1];
            double ps = (fs_left + fs) * w->half[k - 1] + (ds_left - ds) * w->dx2_12[k - 1];
            low_c = k == 1 ? pc : low_c + pc; /* summed left to right */
            low_s = k == 1 ? ps : low_s + ps;
        }
        Q[k] = low_c, P[k] = low_s;
        fc_left = fc, fs_left = fs, dc_left = dc, ds_left = ds;
        gm = g, g = gn, gn = k + 2 < n ? density(V, U, J, k + 2) : 0.0;
    }
    const double *ch_lo = ch + n, *sh_lo = sh + n, *ch_hi = ch + 2 * n, *sh_hi = sh + 2 * n;
    const double low_c_end = Q[n - 1], low_s_end = P[n - 1];
    for (long k = 0; k < n; k++) {
        double low_c = Q[k], low_s = P[k], high_c = low_c_end - low_c, high_s = low_s_end - low_s;
        Q[k] = (sh_lo[k] * low_c - ch_lo[k] * low_s + sh_hi[k] * high_c - ch_hi[k] * high_s)
               * w->half_m;
        P[k] = (ch_lo[k] * low_c - sh_lo[k] * low_s + ch_hi[k] * high_c - sh_hi[k] * high_s)
               * w->half_m;
    }
}

/* dZ = (dX, dW, dV, dU, dJ), 5 x n, of the stage input (X, W, V, U, J).  The linearized
 * field (linear._linear_rhs) is the leading terms of the nonlinear one, which adds those
 * of QP = (Q, P).  linear is a constant at each call, so each flow compiles to its own loop
 * without a test in it.  Its phi = m cosh(pi - X) is m cosh(X - pi) bit for bit: pi - X
 * rounds to -(X - pi) and NumPy's cosh is even.  dZ here and QP in stage_convolutions are
 * restrict parameters, not read from w, so that GCC vectorizes their loops. */
static inline __attribute__((always_inline)) void stage_derivative(const stage *w,
                                                                    double *restrict dZ, int linear)
{
    const long n = w->n;
    const double *W = w->rows, *V = w->rows + n, *U = w->rows + 2 * n, *J = w->rows + 3 * n;
    const double *Q = w->QP, *P = w->QP + n, pmv = w->pmv;
    const double *coshX = w->cosh, *sinhX = w->sinh, *ch_lo = w->cosh + n, *sh_lo = w->sinh + n;
    double *dX = dZ, *dW = dZ + n, *dV = dZ + 2 * n, *dU = dZ + 3 * n, *dJ = dZ + 4 * n;
    const double v0 = V[0], p0 = linear ? 0.0 : P[0], v0v0 = v0 * v0;
    for (long k = 0; k < n; k++) {
        double ph = ch_lo[k] * w->m, php = sh_lo[k] * w->m; /* phi, phi' of X */
        double x = ph - w->M, dw = php * W[k] + (1.0 - coshX[k]) * pmv;
        double dv = ph * W[k] - sinhX[k] * pmv;
        double du = (W[k] - U[k]) * php + ph * V[k] - coshX[k] * pmv;
        if (linear) {
            dX[k] = x, dW[k] = dw, dV[k] = dv, dU[k] = du, dJ[k] = php * J[k];
        } else {
            double vv = V[k] * V[k];
            dX[k] = x + V[k] - v0;
            dW[k] = dw + (vv - v0v0) * 0.5 - P[k] + p0;
            dV[k] = dv - Q[k];
            dU[k] = du - U[k] * 0.5 * U[k] + vv - P[k];
            dJ[k] = (php + U[k]) * J[k];
        }
    }
    dX[0] = dX[n - 1] = 0.0; /* the peak characteristics are exact fixed points */
}

static const double PI = 3.141592653589793;

/* The stage input z = Z + h k (z = Z without k) as the workspace's rows W, V, U, J
 * and the args X + 0, X - pi, X + pi. */
static void stage_input(const stage *w, const double *k, double h)
{
    const long n = w->n;
    const double *Z = w->Z;
    double *restrict rows = w->rows, *restrict args = w->args;
    for (long i = 0; i < n; i++) {
        double x = k ? Z[i] + h * k[i] : Z[i];
        args[i] = x + 0.0; /* -0.0 becomes +0.0: the table of X + 0, not of X */
        args[n + i] = x - PI;
        args[2 * n + i] = x + PI;
    }
    for (long i = n; i < 5 * n; i++)
        rows[i - n] = k ? Z[i] + h * k[i] : Z[i];
}

/* Starts a classical RK4 step of dt from Z, 5 x n, into out, with Z as the first stage's
 * input and pmv as every stage's mean term; linear picks the linearized flow. */
void rk4_start(stage *w, const double *Z, double *out, double pmv, double dt, int linear)
{
    w->Z = Z, w->out = out, w->pmv = pmv, w->linear = linear;
    w->dt6 = dt / 6.0, w->h[0] = w->h[1] = 0.5 * dt, w->h[2] = dt;
    stage_input(w, 0, 0.0);
}

/* Stage j = 0..3 of the step on the table NumPy filled from its input: its derivative k
 * goes into acc = ((k1 + 2 k2) + 2 k3), then the next stage's input, or after stage 3 the
 * step's result out = Z + (acc + k4) dt/6.  Returns the stage's P[0] (0 when linear). */
double rk4_stage(const stage *w, int j)
{
    const long n5 = 5 * w->n;
    const double *Z = w->Z, *k = w->k, dt6 = w->dt6;
    double *acc = w->acc, *out = w->out;
    if (w->linear) {
        stage_derivative(w, w->k, 1);
    } else {
        stage_convolutions(w, w->QP);
        stage_derivative(w, w->k, 0);
    }
    if (j == 3) {
        for (long i = 0; i < n5; i++)
            out[i] = Z[i] + (acc[i] + k[i]) * dt6;
    } else {
        for (long i = 0; i < n5; i++)
            acc[i] = j == 0 ? k[i] : acc[i] + k[i] * 2.0;
        stage_input(w, k, w->h[j]);
    }
    return w->linear ? 0.0 : w->QP[w->n];
}

__extension__ typedef unsigned __int128 u128;

static const uint64_t POW5[28] = {
    1u, 5u, 25u, 125u, 625u, 3125u, 15625u, 78125u, 390625u, 1953125u, 9765625u, 48828125u,
    244140625u, 1220703125u, 6103515625u, 30517578125u, 152587890625u, 762939453125u,
    3814697265625u, 19073486328125u, 95367431640625u, 476837158203125u, 2384185791015625u,
    11920928955078125u, 59604644775390625u, 298023223876953125u, 1490116119384765625u,
    7450580596923828125u};
static const uint64_t E16 = 10000000000000000u, E17 = 100000000000000000u;

/* floor(m 2^e 10^p) into *t and the same rounded half to even into *r, for m < 2^53 and
 * p <= 32, where m 5^p < 2^128 is exact; the callers keep the shift below 128. */
static void scaled(uint64_t m, int e, int p, uint64_t *t, uint64_t *r)
{
    u128 x = (u128)m * POW5[p < 27 ? p : 27];
    if (p > 27)
        x *= POW5[p - 27];
    int shift = e + p;
    if (shift >= 0) {
        *t = *r = (uint64_t)(x << shift);
        return;
    }
    u128 rest = x & (((u128)1 << -shift) - 1), half = (u128)1 << (-shift - 1);
    *t = (uint64_t)(x >> -shift);
    *r = *t + (rest > half || (rest == half && (*t & 1)));
}

/* The 17 significant digits of a finite |x| > 0 into d, and its decimal exponent k, so
 * that |x| rounds to d[0].d[1]...d[16] 10^k.  Exact integer arithmetic for
 * 1e-16 <= |x| < 1e17; glibc's correctly rounded "%.16e" elsewhere (and subnormals),
 * read past its decimal point, which LC_NUMERIC may change. */
static int digits17(double x, char *d)
{
    uint64_t u;
    memcpy(&u, &x, sizeof u);
    int b = (int)(u >> 52 & 0x7ff) - 1023; /* 2^b <= |x| < 2^(b + 1) when normal */
    int k = b >= 0 ? (b * 78913) >> 18 : -((-b * 78913) >> 18) - 1; /* floor(b log10 2) */
    if (b > -1023 && k >= -17 && k <= 16) {
        uint64_t m = (u & ((UINT64_C(1) << 52) - 1)) | UINT64_C(1) << 52, t, r;
        if (k < -16)
            k = -16; /* |x| is below 1e-16 unless it has 17 digits at k = -16 */
        scaled(m, b - 52, 16 - k, &t, &r);
        if (t >= E17 && k < 16)
            scaled(m, b - 52, 16 - ++k, &t, &r); /* the exponent is floor(b log10 2) + 1 */
        if (t >= E16 && t < E17) {
            if (r == E17)
                r = E16, k++; /* rounding carried into the next decade */
            for (int i = 16; i >= 0; i--, r /= 10)
                d[i] = (char)('0' + r % 10);
            return k;
        }
    }
    char e[40];
    snprintf(e, sizeof e, "%.16e", x < 0 ? -x : x);
    const char *c = e + 1;
    d[0] = e[0];
    while (*c < '0' || *c > '9')
        c++; /* the decimal point */
    memcpy(d + 1, c, 16);
    c += 17; /* past 'e' */
    int sign = *c++ == '-' ? -1 : 1;
    for (k = 0; *c; c++)
        k = 10 * k + (*c - '0');
    return sign * k;
}

/* Python's '%.17g' % x into out, at most 24 bytes and no NUL; returns the end. */
static char *g17(char *out, double x)
{
    uint64_t u;
    memcpy(&u, &x, sizeof u);
    if (x != x) {
        memcpy(out, "nan", 3); /* whatever its sign */
        return out + 3;
    }
    if (u >> 63)
        *out++ = '-';
    if (x == 0) {
        *out = '0';
        return out + 1;
    }
    if ((u >> 52 & 0x7ff) == 0x7ff) {
        memcpy(out, "inf", 3);
        return out + 3;
    }
    char d[17];
    int k = digits17(x, d), last = 16;
    while (last > 0 && d[last] == '0')
        last--; /* trailing zeros go */
    if (k < -4 || k >= 17) {
        *out++ = d[0];
        if (last > 0) {
            *out++ = '.';
            memcpy(out, d + 1, last);
            out += last;
        }
        *out++ = 'e';
        *out++ = k < 0 ? '-' : '+';
        k = k < 0 ? -k : k;
        if (k >= 100)
            *out++ = (char)('0' + k / 100);
        *out++ = (char)('0' + k / 10 % 10);
        *out++ = (char)('0' + k % 10);
    } else if (k < 0) {
        *out++ = '0';
        *out++ = '.';
        for (int i = -1; i > k; i--)
            *out++ = '0';
        memcpy(out, d, last + 1);
        out += last + 1;
    } else {
        memcpy(out, d, k + 1);
        out += k + 1;
        if (last > k) {
            *out++ = '.';
            memcpy(out, d + k + 1, last - k);
            out += last - k;
        }
    }
    return out;
}

/* The rows of a state CSV from cols = (s, X, V, U, W), 5 x n: s + shift, X + shift, V, U, W
 * for every node, then s + 0.0, X + 0.0, V, U, W, each number as Python's '%.17g', ','
 * between and '\n' after.  buf takes at most 2 n (5 24 + 5) bytes; returns the count
 * written.  V, U and W are formatted once and copied into the second block. */
long state_csv(const double *cols, long n, double shift, char *buf)
{
    const double *s = cols, *X = cols + n, *V = cols + 2 * n, *U = cols + 3 * n, *W = cols + 4 * n;
    char *p = buf;
    for (long i = 0; i < n; i++) {
        p = g17(p, s[i] + shift), *p++ = ',';
        p = g17(p, X[i] + shift), *p++ = ',';
        p = g17(p, V[i]), *p++ = ',';
        p = g17(p, U[i]), *p++ = ',';
        p = g17(p, W[i]), *p++ = '\n';
    }
    const char *row = buf; /* the first block's row i */
    for (long i = 0; i < n; i++) {
        p = g17(p, s[i] + 0.0), *p++ = ',';
        p = g17(p, X[i] + 0.0), *p++ = ',';
        const char *x_cell = (const char *)memchr(row, ',', p - row) + 1;
        const char *vuw = (const char *)memchr(x_cell, ',', p - x_cell) + 1;
        row = (const char *)memchr(vuw, '\n', p - vuw) + 1;
        memcpy(p, vuw, row - vuw);
        p += row - vuw;
    }
    return p - buf;
}
