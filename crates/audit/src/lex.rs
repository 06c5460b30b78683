//! The shared token stream behind every static pass in this crate.
//!
//! Both analyzers — the state-coverage [`crate::scanner`] and the
//! determinism lint ([`crate::determinism`]) — work on the same
//! dependency-free lexical view of Rust source: identifiers,
//! punctuation and integer literals with their source lines, plus the
//! harvested `// <prefix>:` exemption directives. Centralizing the
//! lexer here keeps the two passes' view of a file identical (one
//! string-literal or lifetime mis-parse would otherwise desynchronize
//! them) and gives each pass only the directives of its own namespace,
//! so an `// audit:` typo can never be mistaken for a determinism
//! exemption or vice versa.

/// One lexical token with its source line.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Token {
    pub tok: Tok,
    pub line: u32,
}

/// Token kinds the analyzers distinguish.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Tok {
    /// Identifier or keyword.
    Ident(String),
    /// Single punctuation character.
    Punct(char),
    /// Integer literal (decimal or hex, `_` separators allowed).
    Int(u64),
    /// Anything else (float/string/char/lifetime placeholder).
    Other,
}

impl Tok {
    pub fn is_ident(&self, s: &str) -> bool {
        matches!(self, Tok::Ident(i) if i == s)
    }
    pub fn is_punct(&self, c: char) -> bool {
        matches!(self, Tok::Punct(p) if *p == c)
    }
    pub fn ident(&self) -> Option<&str> {
        match self {
            Tok::Ident(i) => Some(i),
            _ => None,
        }
    }
}

/// The directive namespaces the analyzers recognize. A comment whose
/// leading word is none of these is ordinary prose and never harvested,
/// so each pass sees exactly its own grammar (plus, via
/// [`Directive::prefix`], nothing else's).
pub(crate) const DIRECTIVE_PREFIXES: [&str; 2] = ["audit", "determinism"];

/// One `// <prefix>: …` comment found during tokenization.
#[derive(Debug, Clone)]
pub(crate) struct Directive {
    /// Namespace word before the colon (`audit` or `determinism`).
    pub prefix: &'static str,
    /// 1-based source line of the comment.
    pub line: u32,
    /// Trimmed text after the colon.
    pub text: String,
}

impl Directive {
    /// Parses the common `<keyword> -- <reason>` grammar shared by
    /// every namespace (`audit: skip -- r`, `determinism: allow -- r`):
    /// `Ok(reason)` for a well-formed
    /// directive with a non-empty reason, `Err(raw)` otherwise — the
    /// raw text lets the caller render the malformed directive.
    pub fn reason_for(&self, keyword: &str) -> Result<String, String> {
        let raw = format!("{}: {}", self.prefix, self.text);
        match self.text.strip_prefix(keyword) {
            Some(tail) => match tail.trim().strip_prefix("--") {
                Some(reason) if !reason.trim().is_empty() => Ok(reason.trim().to_string()),
                _ => Err(raw),
            },
            None => Err(raw),
        }
    }
}

/// Tokenizes Rust source, stripping comments/strings but harvesting
/// directive comments from every recognized namespace.
pub(crate) fn tokenize(text: &str) -> (Vec<Token>, Vec<Directive>) {
    let bytes: Vec<char> = text.chars().collect();
    let mut toks = Vec::new();
    let mut directives = Vec::new();
    let mut line: u32 = 1;
    let mut i = 0usize;
    let n = bytes.len();

    let is_ident_start = |c: char| c.is_alphabetic() || c == '_';
    let is_ident_cont = |c: char| c.is_alphanumeric() || c == '_';

    while i < n {
        let c = bytes[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            '/' if i + 1 < n && bytes[i + 1] == '/' => {
                let start = i + 2;
                let mut j = start;
                while j < n && bytes[j] != '\n' {
                    j += 1;
                }
                let comment: String = bytes[start..j].iter().collect();
                let trimmed = comment.trim_start_matches(['/', '!']).trim();
                for prefix in DIRECTIVE_PREFIXES {
                    if let Some(rest) = trimmed.strip_prefix(prefix) {
                        if let Some(text) = rest.strip_prefix(':') {
                            directives.push(Directive {
                                prefix,
                                line,
                                text: text.trim().to_string(),
                            });
                            break;
                        }
                    }
                }
                i = j;
            }
            '/' if i + 1 < n && bytes[i + 1] == '*' => {
                let mut depth = 1;
                i += 2;
                while i < n && depth > 0 {
                    if bytes[i] == '\n' {
                        line += 1;
                        i += 1;
                    } else if bytes[i] == '/' && i + 1 < n && bytes[i + 1] == '*' {
                        depth += 1;
                        i += 2;
                    } else if bytes[i] == '*' && i + 1 < n && bytes[i + 1] == '/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            '"' => {
                // String literal (handles escapes; raw strings are caught
                // by the `r` ident path below falling through here, which
                // is good enough for the sources we scan).
                i += 1;
                while i < n {
                    match bytes[i] {
                        '\\' => i += 2,
                        '"' => {
                            i += 1;
                            break;
                        }
                        '\n' => {
                            line += 1;
                            i += 1;
                        }
                        _ => i += 1,
                    }
                }
                toks.push(Token { tok: Tok::Other, line });
            }
            '\'' => {
                // Lifetime or char literal. A lifetime is `'ident` not
                // followed by a closing quote.
                let mut j = i + 1;
                if j < n && is_ident_start(bytes[j]) {
                    while j < n && is_ident_cont(bytes[j]) {
                        j += 1;
                    }
                    if j < n && bytes[j] == '\'' {
                        // char literal like 'a'
                        i = j + 1;
                    } else {
                        i = j; // lifetime
                    }
                    toks.push(Token { tok: Tok::Other, line });
                } else {
                    // char literal with escape or punctuation: '\n', '%'
                    i += 1;
                    while i < n && bytes[i] != '\'' {
                        if bytes[i] == '\\' {
                            i += 1;
                        }
                        if bytes[i] == '\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                    i += 1;
                    toks.push(Token { tok: Tok::Other, line });
                }
            }
            c if is_ident_start(c) => {
                let mut j = i;
                while j < n && is_ident_cont(bytes[j]) {
                    j += 1;
                }
                let ident: String = bytes[i..j].iter().collect();
                toks.push(Token { tok: Tok::Ident(ident), line });
                i = j;
            }
            c if c.is_ascii_digit() => {
                let mut j = i;
                while j < n
                    && (bytes[j].is_ascii_alphanumeric() || bytes[j] == '_' || bytes[j] == '.')
                {
                    // Stop a float's `.` from eating a method call: `1.max(2)`.
                    if bytes[j] == '.' && j + 1 < n && !bytes[j + 1].is_ascii_digit() {
                        break;
                    }
                    j += 1;
                }
                let lit: String = bytes[i..j].iter().filter(|&&ch| ch != '_').collect();
                let tok = if let Some(hex) = lit.strip_prefix("0x").or(lit.strip_prefix("0X")) {
                    u64::from_str_radix(hex, 16).map(Tok::Int).unwrap_or(Tok::Other)
                } else {
                    let digits: String = lit.chars().take_while(char::is_ascii_digit).collect();
                    let has_suffix_only =
                        lit.chars().skip(digits.len()).all(|ch| ch.is_ascii_alphabetic());
                    if has_suffix_only {
                        digits.parse::<u64>().map(Tok::Int).unwrap_or(Tok::Other)
                    } else {
                        Tok::Other
                    }
                };
                toks.push(Token { tok, line });
                i = j;
            }
            c if c.is_whitespace() => i += 1,
            c => {
                toks.push(Token { tok: Tok::Punct(c), line });
                i += 1;
            }
        }
    }
    (toks, directives)
}

/// Advances past a balanced `<…>` group if one starts at `i`.
pub(crate) fn skip_generics(toks: &[Token], mut i: usize) -> usize {
    if i < toks.len() && toks[i].tok.is_punct('<') {
        let mut depth = 0i32;
        while i < toks.len() {
            match &toks[i].tok {
                Tok::Punct('<') => depth += 1,
                Tok::Punct('>') => {
                    depth -= 1;
                    if depth == 0 {
                        return i + 1;
                    }
                }
                _ => {}
            }
            i += 1;
        }
    }
    i
}

/// Advances past a balanced group opened by the delimiter at `i`.
pub(crate) fn skip_balanced(toks: &[Token], mut i: usize, open: char, close: char) -> usize {
    let mut depth = 0i32;
    while i < toks.len() {
        if toks[i].tok.is_punct(open) {
            depth += 1;
        } else if toks[i].tok.is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directives_of_every_namespace_are_harvested() {
        let src = "// audit: skip -- a\nlet x = 1; // determinism: allow -- b\n\
                   // plain comment: not a directive\n";
        let (_, dirs) = tokenize(src);
        let seen: Vec<(&str, u32)> = dirs.iter().map(|d| (d.prefix, d.line)).collect();
        assert_eq!(seen, vec![("audit", 1), ("determinism", 2)]);
        assert_eq!(dirs[0].reason_for("skip").as_deref(), Ok("a"));
        assert_eq!(dirs[1].reason_for("allow").as_deref(), Ok("b"));
    }

    #[test]
    fn malformed_directives_surface_their_raw_text() {
        let (_, dirs) = tokenize("// determinism: allow\n// audit: skpi -- typo\n");
        assert_eq!(dirs[0].reason_for("allow"), Err("determinism: allow".to_string()));
        assert_eq!(dirs[1].reason_for("skip"), Err("audit: skpi -- typo".to_string()));
    }

    #[test]
    fn wrong_namespace_is_not_cross_harvested() {
        let (_, dirs) = tokenize("// determinism: allow -- fine\n// note: skip -- prose\n");
        assert_eq!(dirs.len(), 1, "an unknown namespace is prose: {dirs:?}");
        assert_eq!(dirs[0].prefix, "determinism");
        assert_eq!(dirs[0].reason_for("skip"), Err("determinism: allow -- fine".to_string()));
    }
}
