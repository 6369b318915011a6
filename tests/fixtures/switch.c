/* Fixture: a dense switch dispatched through a jump table inside a
 * loop (expected exit value 33). */
int main()
{
    int i;
    int s;
    s = 0;
    for (i = 0; i < 12; i = i + 1) {
        switch (i - (i / 4) * 4) {
            case 0: s = s + 1; break;
            case 1: s = s + 2; break;
            case 2: s = s + 3; break;
            default: s = s + 5; break;
        }
    }
    return s;
}
