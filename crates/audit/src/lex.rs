//! The token stream behind the determinism lint ([`crate::determinism`]).
//!
//! A dependency-free lexical view of Rust source: identifiers,
//! punctuation and integer literals with their source lines, with
//! comments and strings stripped, plus the harvested
//! `// determinism:` exemption directives. A comment whose leading word
//! is anything else is prose, so no other comment can waive the lint.

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
}

/// The directive namespace: the word before the colon of a harvested
/// comment.
const DIRECTIVE_PREFIX: &str = "determinism";

/// One `// determinism: …` comment found during tokenization.
#[derive(Debug, Clone)]
pub(crate) struct Directive {
    /// 1-based source line of the comment.
    pub line: u32,
    /// Trimmed text after the colon.
    pub text: String,
}

impl Directive {
    /// Parses the `<keyword> -- <reason>` grammar
    /// (`determinism: allow -- r`): `Ok(reason)` for a well-formed
    /// directive with a non-empty reason, `Err(raw)` otherwise — the
    /// raw text lets the caller render the malformed directive.
    pub fn reason_for(&self, keyword: &str) -> Result<String, String> {
        let raw = format!("{DIRECTIVE_PREFIX}: {}", self.text);
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
/// directive comments.
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
                if let Some(text) =
                    trimmed.strip_prefix(DIRECTIVE_PREFIX).and_then(|rest| rest.strip_prefix(':'))
                {
                    directives.push(Directive { line, text: text.trim().to_string() });
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
        // Own-line, trailing and doc-comment forms of the one namespace.
        let src = "// determinism: allow -- a\nlet x = 1; // determinism: allow -- b\n\
                   //! determinism: allow -- c\n// plain comment: not a directive\n";
        let (_, dirs) = tokenize(src);
        let seen: Vec<u32> = dirs.iter().map(|d| d.line).collect();
        assert_eq!(seen, vec![1, 2, 3]);
        assert_eq!(dirs[0].reason_for("allow").as_deref(), Ok("a"));
        assert_eq!(dirs[1].reason_for("allow").as_deref(), Ok("b"));
        assert_eq!(dirs[2].reason_for("allow").as_deref(), Ok("c"));
    }

    #[test]
    fn malformed_directives_surface_their_raw_text() {
        let (_, dirs) = tokenize("// determinism: allow\n// determinism: alow -- typo\n");
        assert_eq!(dirs[0].reason_for("allow"), Err("determinism: allow".to_string()));
        assert_eq!(dirs[1].reason_for("allow"), Err("determinism: alow -- typo".to_string()));
    }

    #[test]
    fn lifetimes_and_char_literals_do_not_derail_tokenizer() {
        let src = "struct P<'a> { live: &'a [bool] }\n\
                   let c = '\"'; let s = \"a \\\" Instant // b\";\n\
                   let m = HashMap::new();\n";
        let (toks, dirs) = tokenize(src);
        let idents: Vec<(&str, u32)> = toks
            .iter()
            .filter_map(|t| match &t.tok {
                Tok::Ident(i) => Some((i.as_str(), t.line)),
                _ => None,
            })
            .collect();
        assert!(idents.contains(&("HashMap", 3)), "{idents:?}");
        assert!(!idents.iter().any(|&(i, _)| i == "Instant"), "string text leaked: {idents:?}");
        assert!(dirs.is_empty());
    }

    #[test]
    fn wrong_namespace_is_not_cross_harvested() {
        let src = "// determinism: allow -- fine\n// note: skip -- prose\n\
                   // audit: prose -- any other namespace is prose too\n";
        let (_, dirs) = tokenize(src);
        assert_eq!(dirs.len(), 1, "an unknown namespace is prose: {dirs:?}");
        assert_eq!(dirs[0].line, 1);
        assert_eq!(dirs[0].reason_for("skip"), Err("determinism: allow -- fine".to_string()));
    }
}
